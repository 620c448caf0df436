package lila

import "lagalyzer/internal/trace"

// Flatten collects s's record stream, in the order WriteSession
// encodes it, for tests that inspect or re-encode the stream.
func Flatten(s *trace.Session) []*Record {
	var recs []*Record
	f := flatten(s)
	f.each(func(r *Record) error {
		cp := *r
		recs = append(recs, &cp)
		return nil
	})
	return recs
}

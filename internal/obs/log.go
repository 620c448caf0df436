package obs

import (
	"context"
	"log/slog"
)

// DiscardLogger returns a logger that drops every record before
// formatting it; it stands in for a nil logger option so call sites
// never nil-check. (The stdlib gained slog.DiscardHandler in go1.24;
// this stays compatible with the module's go directive.)
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

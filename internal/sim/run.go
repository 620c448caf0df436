package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"lagalyzer/internal/lila"
	"lagalyzer/internal/stats"
	"lagalyzer/internal/trace"
	"lagalyzer/internal/treebuild"
)

// guiThreadID is the event dispatch thread's ID in simulated traces;
// background threads count up from it.
const guiThreadID trace.ThreadID = 1

// Run simulates one session and returns it rebuilt through the same
// treebuild path real traces take, streaming each record to the builder.
func Run(cfg Config) (*trace.Session, error) { return RunOptions(cfg, treebuild.Options{}) }

// RunOptions is Run building with o, which in release mode (o.Episode
// set) hands each episode over as it closes and returns the session
// without them.
func RunOptions(cfg Config, o treebuild.Options) (*trace.Session, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	s := newSimulation(cfg)
	sess, _, err := treebuild.BuildFeed(cfg.Header(), s.end, o, s.run)
	return sess, err
}

// Stream simulates one session, handing fn its raw records in order —
// what the LiLa profiler would have produced — until fn's first error,
// which it returns. A record is valid only during its call; every
// sample of one distinct stack carries the same immutable slice.
func Stream(cfg Config, fn func(*lila.Record) error) error {
	if err := validate(cfg); err != nil {
		return err
	}
	return newSimulation(cfg).run(fn)
}

// Records simulates one session and returns its raw record stream and
// header, collected from Stream.
func Records(cfg Config) ([]*lila.Record, lila.Header, error) {
	var recs []*lila.Record
	if err := Stream(cfg, func(r *lila.Record) error {
		cp := *r
		recs = append(recs, &cp)
		return nil
	}); err != nil {
		return nil, lila.Header{}, err
	}
	return recs, cfg.Header(), nil
}

// Header is the LiLa header of the sessions cfg (with a profile) simulates.
func (c Config) Header() lila.Header {
	return lila.Header{
		App:             c.Profile.Name,
		SessionID:       c.SessionID,
		GUIThread:       guiThreadID,
		FilterThreshold: c.filterThreshold(),
		SamplePeriod:    c.samplePeriod(),
	}
}

func validate(cfg Config) error {
	p := cfg.Profile
	if p == nil {
		return fmt.Errorf("sim: config has no profile")
	}
	if p.Name == "" {
		return fmt.Errorf("sim: profile has no name")
	}
	if len(p.UserBehaviors) == 0 && len(p.Timers) == 0 {
		return fmt.Errorf("sim: profile %s has neither user behaviors nor timers", p.Name)
	}
	if p.SessionSeconds <= 0 && cfg.SessionSeconds <= 0 {
		return fmt.Errorf("sim: profile %s has no session length", p.Name)
	}
	check := func(b *Behavior, role string) error {
		if b == nil {
			return fmt.Errorf("sim: profile %s has a nil %s behavior", p.Name, role)
		}
		if b.DurMs == nil {
			return fmt.Errorf("sim: behavior %s of %s has no duration distribution", b.Name, p.Name)
		}
		return nil
	}
	for _, b := range p.UserBehaviors {
		if err := check(b, "user"); err != nil {
			return err
		}
	}
	if len(p.UserBehaviors) > 0 && p.ThinkTimeMs == nil {
		return fmt.Errorf("sim: profile %s has user behaviors but no think time", p.Name)
	}
	for _, t := range p.Timers {
		if err := check(t.Behavior, "timer"); err != nil {
			return err
		}
		if t.PeriodMs == nil {
			return fmt.Errorf("sim: timer behavior %s of %s has no period", t.Behavior.Name, p.Name)
		}
	}
	return nil
}

type simulation struct {
	cfg  Config
	prof *Profile
	r    *rand.Rand
	sink func(*lila.Record) error // receives every record, through rec
	rec  lila.Record
	err  error // sink's first error; it stops the session

	now trace.Time
	end trace.Time

	// sampler state
	samplePeriod trace.Dur
	nextTick     trace.Time
	skipUntil    trace.Time

	// heap state
	heapUsedMB float64
	gcCount    int

	// episode execution state
	edtStack []stackCtx

	// event sources
	nextUser  trace.Time
	burstLeft int
	timers    []timerState

	// short-episode materialization
	nextShort trace.Time

	filter trace.Dur

	// Allocation reuse. A session samples only a few hundred distinct
	// stacks: a GUI stack is built in scratch and deduplicated the
	// first time its path, state and leaf come up, then reused.
	stacks      lila.StackTab
	paths       []guiPath     // by path id; paths[0] is the root
	tickBuf     []trace.Frame // stack-build scratch, reused
	plans       planArena     // episode plan nodes, reused per episode
	leaves      []trace.Frame // pickLeaf's pools, AppPackage applied
	workerStack []trace.Frame // defaultWorkerStack, computed once
	userWeights []float64     // UserBehaviors weights for stats.Pick
}

type timerState struct {
	t    *Timer
	next trace.Time
	stop trace.Time
}

func newSimulation(cfg Config) *simulation {
	p := cfg.Profile
	h := fnv.New64a()
	h.Write([]byte(p.Name))
	r := stats.NewRand(cfg.Seed^h.Sum64(), uint64(cfg.SessionID)*0x9e3779b97f4a7c15+1)

	secs := cfg.SessionSeconds
	if secs <= 0 {
		// Sessions are "similar", not identical: jitter ±10%.
		secs = p.SessionSeconds * (0.9 + 0.2*r.Float64())
	}
	s := &simulation{
		cfg:          cfg,
		prof:         p,
		r:            r,
		end:          trace.Time(secs * float64(trace.Second)),
		samplePeriod: cfg.samplePeriod(),
		filter:       cfg.filterThreshold(),
		paths:        make([]guiPath, 1),
	}
	s.nextTick = trace.Time(s.samplePeriod / 2) // avoid boundary coincidences

	if len(p.UserBehaviors) > 0 {
		s.nextUser = s.sampleThink(0)
	} else {
		s.nextUser = s.end // never
	}
	for _, t := range p.Timers {
		stop := s.end
		if t.ActiveTo > 0 {
			stop = trace.Time(t.ActiveTo * float64(trace.Second))
		}
		first := trace.Time(t.ActiveFrom*float64(trace.Second)) + trace.Time(trace.Ms(t.PeriodMs.Sample(r)))
		s.timers = append(s.timers, timerState{t: t, next: first, stop: stop})
	}
	if cfg.MaterializeShort && p.ShortPerSecond > 0 {
		s.nextShort = s.shortArrival(0)
	} else {
		s.nextShort = s.end
	}
	s.leaves = leafFrames(p.AppPackage)
	s.workerStack = defaultWorkerStack(p.AppPackage)
	if len(p.UserBehaviors) > 1 {
		s.userWeights = make([]float64, len(p.UserBehaviors))
		for i, b := range p.UserBehaviors {
			s.userWeights[i] = b.Weight
		}
	}
	return s
}

// emit hands rec to the sink through the reused s.rec: passing &rec
// itself would move every record to the heap.
func (s *simulation) emit(rec lila.Record) {
	if s.err == nil {
		s.rec = rec
		s.err = s.sink(&s.rec)
	}
}

// sample hands the sink a sample record written in place into s.rec,
// every field reset: the most frequent record skips emit's copies.
func (s *simulation) sample(at trace.Time, th trace.ThreadID, st trace.ThreadState, stack []trace.Frame) {
	if s.err != nil {
		return
	}
	r := &s.rec
	*r = lila.Record{}
	r.Type, r.Time, r.Thread, r.State, r.Stack = lila.RecSample, at, th, st, stack
	s.err = s.sink(r)
}

func (s *simulation) sampleThink(from trace.Time) trace.Time {
	return from + trace.Time(trace.Ms(s.prof.ThinkTimeMs.Sample(s.r)))
}

func (s *simulation) shortArrival(from trace.Time) trace.Time {
	gap := s.r.ExpFloat64() / s.prof.ShortPerSecond
	return from + trace.Time(gap*float64(trace.Second))
}

// run is the main loop: alternate idle gaps and episodes until the
// session ends, handing every record to sink. It returns sink's first
// error.
func (s *simulation) run(sink func(*lila.Record) error) error {
	s.sink = sink
	s.emit(lila.Record{Type: lila.RecThread, Thread: guiThreadID, Name: "AWT-EventQueue-0"})
	for i, bg := range s.prof.Background {
		s.emit(lila.Record{
			Type:   lila.RecThread,
			Thread: guiThreadID + 1 + trace.ThreadID(i),
			Name:   bg.Name,
			Daemon: true,
		})
	}

	for s.err == nil {
		arrival, behavior, user := s.nextArrival()
		if behavior == nil || arrival >= s.end {
			break
		}
		if arrival > s.now {
			s.idleAdvance(arrival)
		}
		s.runEpisode(behavior)
		if user {
			// The user reacts to the completed interaction: think
			// time counts from when the system responded, not from
			// when the input was sent (otherwise a fast typist would
			// produce unbounded queues).
			s.rescheduleUser()
		}
	}
	if s.err == nil && s.end > s.now {
		s.idleAdvance(s.end)
	}

	short := 0
	if !s.cfg.MaterializeShort && s.prof.ShortPerSecond > 0 {
		short = stats.Poisson(s.r, s.prof.ShortPerSecond*s.end.Seconds())
	}
	s.emit(lila.Record{Type: lila.RecEnd, Time: s.now, Count: short})
	return s.err
}

// nextArrival picks the earliest pending EDT event. Timer sources are
// rescheduled immediately (they fire on their own cadence, coalescing
// missed ticks like Swing timers); the user source is rescheduled by
// the caller after the episode completes.
func (s *simulation) nextArrival() (at trace.Time, b *Behavior, user bool) {
	best := s.end
	bestTimer := -1
	if len(s.prof.UserBehaviors) > 0 && s.nextUser < best {
		best = s.nextUser
		user = true
	}
	for i := range s.timers {
		ts := &s.timers[i]
		if ts.next < ts.stop && ts.next < best {
			best = ts.next
			bestTimer = i
			user = false
		}
	}
	switch {
	case bestTimer >= 0:
		ts := &s.timers[bestTimer]
		period := trace.Time(trace.Ms(ts.t.PeriodMs.Sample(s.r)))
		ts.next += period
		if ts.next < s.now {
			ts.next = s.now + period
		}
		return best, ts.t.Behavior, false
	case user:
		return best, s.pickUser(), true
	default:
		return s.end, nil, false
	}
}

// pickUser selects a user behavior by weight (a single behavior is
// chosen without spending a random draw, matching the historical
// stream so seeded sessions stay reproducible).
func (s *simulation) pickUser() *Behavior {
	bs := s.prof.UserBehaviors
	if len(bs) == 1 {
		return bs[0]
	}
	return bs[stats.Pick(s.r, s.userWeights)]
}

// rescheduleUser plans the next user input after an interaction's
// episode completed at s.now. Within a burst (typing), inputs follow
// quickly; otherwise the user thinks first.
func (s *simulation) rescheduleUser() {
	if s.burstLeft == 0 && s.prof.InputsPerInteraction != nil {
		s.burstLeft = s.prof.InputsPerInteraction.SampleInt(s.r)
	}
	if s.burstLeft > 1 {
		s.burstLeft--
		s.nextUser = s.now + trace.Time(trace.Ms(20+80*s.r.Float64()))
		return
	}
	s.burstLeft = 0
	s.nextUser = s.sampleThink(s.now)
}

// idleAdvance moves the clock to `to` with the EDT idle: ambient
// allocation accrues (possibly triggering collections), materialized
// short episodes fire, and sampling ticks observe a waiting GUI
// thread.
func (s *simulation) idleAdvance(to trace.Time) {
	for s.now < to {
		// Short arrivals that fell inside a long episode are
		// rescheduled: the EDT was busy, the inputs coalesced.
		if s.nextShort < s.now {
			s.nextShort = s.shortArrival(s.now)
		}
		// Materialized short episodes interleave with the idle time.
		if s.nextShort < to && s.nextShort >= s.now {
			s.advanceIdleSpan(s.nextShort)
			s.materializeShort()
			s.nextShort = s.shortArrival(s.now)
			continue
		}
		s.advanceIdleSpan(to)
	}
}

// advanceIdleSpan advances idle time to `to` in sampling-period
// chunks, accounting ambient allocation.
func (s *simulation) advanceIdleSpan(to trace.Time) {
	for s.now < to {
		chunk := trace.Dur(to - s.now)
		if chunk > s.samplePeriod {
			chunk = s.samplePeriod
		}
		rate := s.prof.Heap.IdleAllocMBPerSec + s.backgroundAllocRate()
		if s.allocCrossesIn(rate, chunk) {
			pre := s.timeToCross(rate)
			if pre > 0 {
				s.advanceTicks(s.now + trace.Time(pre))
				s.allocMB(rate * pre.Seconds())
				s.now = s.now.Add(pre)
			}
			s.doGC(false)
			continue
		}
		s.allocMB(rate * chunk.Seconds())
		s.advanceTicks(s.now + trace.Time(chunk))
		s.now = s.now.Add(chunk)
	}
}

// materializeShort emits one sub-filter episode at the current time.
func (s *simulation) materializeShort() {
	dur := trace.Dur(float64(s.filter) * s.r.Float64() * 0.95)
	if dur < 50*trace.Microsecond {
		dur = 50 * trace.Microsecond
	}
	s.emit(lila.Record{Type: lila.RecCall, Time: s.now, Thread: guiThreadID, Kind: trace.KindDispatch})
	s.advanceTicks(s.now.Add(dur))
	s.now = s.now.Add(dur)
	s.emit(lila.Record{Type: lila.RecReturn, Time: s.now, Thread: guiThreadID})
}

// backgroundAllocRate sums the allocation rates of currently runnable
// background threads.
func (s *simulation) backgroundAllocRate() float64 {
	var rate float64
	for _, bg := range s.prof.Background {
		rate += bg.allocAt(s.now, s.end)
	}
	return rate
}

// --- heap model ---

func (s *simulation) heapEnabled() bool { return s.prof.Heap.CapacityMB > 0 }

func (s *simulation) allocMB(mb float64) {
	if s.heapEnabled() {
		s.heapUsedMB += mb
	}
}

// allocCrossesIn reports whether allocating at `rate` MB/s for `d`
// would cross the heap capacity.
func (s *simulation) allocCrossesIn(rate float64, d trace.Dur) bool {
	if !s.heapEnabled() || rate <= 0 {
		return false
	}
	return s.heapUsedMB+rate*d.Seconds() >= s.prof.Heap.CapacityMB
}

// timeToCross returns how long allocation at `rate` takes to fill the
// remaining headroom.
func (s *simulation) timeToCross(rate float64) trace.Dur {
	headroom := s.prof.Heap.CapacityMB - s.heapUsedMB
	if headroom <= 0 {
		return 0
	}
	return trace.Dur(headroom / rate * float64(trace.Second))
}

// doGC performs a stop-the-world collection at the current time:
// safepoint ramp, GC bracket, post-GC scheduling delay. Sampling is
// suppressed for the whole window (the sampler is a mutator too),
// reproducing the Figure 1 gap that is wider than the GC interval.
func (s *simulation) doGC(explicit bool) {
	hc := s.prof.Heap
	s.gcCount++
	major := explicit || (hc.MajorEvery > 0 && s.gcCount%hc.MajorEvery == 0)

	ramp := sampleMs(hc.RampMs, s.r)
	var pause trace.Dur
	if major && hc.MajorPauseMs != nil {
		pause = sampleMs(hc.MajorPauseMs, s.r)
	} else {
		pause = sampleMs(hc.MinorPauseMs, s.r)
	}
	if pause <= 0 {
		pause = trace.Ms(1)
	}
	post := sampleMs(hc.PostDelayMs, s.r)

	suppressEnd := s.now.Add(ramp + pause + post)
	if suppressEnd > s.skipUntil {
		s.skipUntil = suppressEnd
	}

	s.advanceTicks(s.now.Add(ramp)) // consumed silently: skipUntil covers them
	s.now = s.now.Add(ramp)
	s.emit(lila.Record{Type: lila.RecGCStart, Time: s.now, Major: major})
	s.advanceTicks(s.now.Add(pause))
	s.now = s.now.Add(pause)
	s.emit(lila.Record{Type: lila.RecGCEnd, Time: s.now})
	s.advanceTicks(s.now.Add(post))
	s.now = s.now.Add(post)

	s.heapUsedMB = 0
}

func sampleMs(d stats.Dist, r *rand.Rand) trace.Dur {
	if d == nil {
		return 0
	}
	ms := d.Sample(r)
	if ms < 0 || math.IsNaN(ms) {
		return 0
	}
	return trace.Ms(ms)
}

// --- sampler ---

// advanceTicks emits sampling ticks with time < to. The GUI thread's
// sample reflects the current EDT stack context; when the EDT is idle
// the canonical waiting-in-getNextEvent stack is used. Ticks inside
// the suppression window are consumed without being emitted.
func (s *simulation) advanceTicks(to trace.Time) {
	for ; s.nextTick < to; s.nextTick += trace.Time(s.samplePeriod) {
		if s.nextTick < s.skipUntil {
			continue
		}
		s.emitTick(s.nextTick, trace.StateWaiting)
	}
}

// advanceTicksInState is advanceTicks during episode work, with the
// GUI thread in the given state.
func (s *simulation) advanceTicksInState(to trace.Time, state trace.ThreadState) {
	for ; s.nextTick < to; s.nextTick += trace.Time(s.samplePeriod) {
		if s.nextTick < s.skipUntil {
			continue
		}
		s.emitTick(s.nextTick, state)
	}
}

func (s *simulation) emitTick(at trace.Time, guiState trace.ThreadState) {
	guiStackFrames := idleGUIStack
	if len(s.edtStack) == 0 {
		guiState = trace.StateWaiting
	} else {
		guiStackFrames = s.guiStack(guiState)
	}
	s.sample(at, guiThreadID, guiState, guiStackFrames)

	for i, bg := range s.prof.Background {
		st := bg.stateAt(at, s.end)
		var stack []trace.Frame
		if st == trace.StateRunnable {
			stack = bg.Stack
			if stack == nil {
				stack = s.workerStack
			}
		} else {
			stack = parkedWorkerStack
		}
		s.sample(at, guiThreadID+1+trace.ThreadID(i), st, stack)
	}
}

// --- episode execution ---

// runEpisode expands the behavior and plays it on the timeline.
func (s *simulation) runEpisode(b *Behavior) {
	p := expand(b, s.r, s.cfg.Perturbation.slowdown(), &s.plans)

	s.emit(lila.Record{Type: lila.RecCall, Time: s.now, Thread: guiThreadID, Kind: trace.KindDispatch})
	s.edtStack = append(s.edtStack, stackCtx{
		frame:   trace.Frame{Class: "java.awt.EventQueue", Method: "dispatchEventImpl"},
		libFrac: s.effectiveLibFrac(-1),
	})

	dispatchCtx := nodeExecCtx{
		mix:         StateMix{},
		libFrac:     s.effectiveLibFrac(-1),
		allocFactor: 1,
	}
	s.playChildren(p.dispatchSelf, p.roots, dispatchCtx)

	s.edtStack = s.edtStack[:len(s.edtStack)-1]
	s.emit(lila.Record{Type: lila.RecReturn, Time: s.now, Thread: guiThreadID})
}

// nodeExecCtx is the execution context of self time: how states,
// samples, and allocation behave.
type nodeExecCtx struct {
	mix         StateMix
	libFrac     float64
	allocFactor float64
}

func (s *simulation) effectiveLibFrac(nodeFrac float64) float64 {
	if nodeFrac >= 0 {
		return nodeFrac
	}
	return s.prof.LibraryFrac
}

// playChildren distributes `self` time into the gaps around the
// children and plays everything in order.
func (s *simulation) playChildren(self trace.Dur, children []*planNode, ctx nodeExecCtx) {
	gaps := len(children) + 1
	per := self / trace.Dur(gaps)
	rem := self - per*trace.Dur(gaps-1)
	for _, c := range children {
		s.advanceWork(per, ctx)
		s.playNode(c)
	}
	s.advanceWork(rem, ctx)
}

// playNode plays one planned interval. Intervals shorter than the
// trace filter are not emitted — the profiler would not have recorded
// them — but their time is still spent (as apparent self time of the
// parent).
func (s *simulation) playNode(pn *planNode) {
	n := pn.node
	if n.ExplicitGC {
		s.doGC(true)
	}
	ctx := nodeExecCtx{
		mix:         n.States,
		libFrac:     s.effectiveLibFrac(nodeLibFrac(n)),
		allocFactor: n.allocFactor(),
	}
	if pn.total < s.filter {
		s.advanceWork(pn.total, ctx)
		return
	}

	s.emit(lila.Record{Type: lila.RecCall, Time: s.now, Thread: guiThreadID,
		Kind: n.Kind, Class: pn.class, Method: pn.method})
	s.edtStack = append(s.edtStack, stackCtx{
		node:    n,
		frame:   trace.Frame{Class: pn.class, Method: pn.method, Native: n.Kind == trace.KindNative},
		extra:   n.ExtraFrames,
		libFrac: ctx.libFrac,
	})

	s.playChildren(pn.self, pn.children, ctx)

	s.edtStack = s.edtStack[:len(s.edtStack)-1]
	s.emit(lila.Record{Type: lila.RecReturn, Time: s.now, Thread: guiThreadID})
}

// nodeLibFrac maps the Node field convention (zero value inherits the
// profile default; see Node.LibFrac) onto effectiveLibFrac's
// convention (negative inherits).
func nodeLibFrac(n *Node) float64 {
	if n.LibFrac == 0 {
		return -1
	}
	return n.LibFrac
}

// advanceWork spends `d` of GUI-thread self time: states are drawn
// from the mix in sampling-period chunks, allocation accrues while
// runnable, and collections interrupt (and stretch) the work.
func (s *simulation) advanceWork(d trace.Dur, ctx nodeExecCtx) {
	for d > 0 {
		chunk := d
		if chunk > s.samplePeriod {
			chunk = s.samplePeriod
		}
		state := pickState(s.r, ctx.mix)
		if state == trace.StateRunnable {
			rate := s.prof.Heap.AllocMBPerSec*ctx.allocFactor + s.backgroundAllocRate() +
				s.cfg.Perturbation.extraAlloc()
			if s.allocCrossesIn(rate, chunk) {
				pre := s.timeToCross(rate)
				if pre > chunk {
					pre = chunk
				}
				if pre > 0 {
					s.advanceTicksInState(s.now+trace.Time(pre), state)
					s.allocMB(rate * pre.Seconds())
					s.now = s.now.Add(pre)
					d -= pre
				}
				s.doGC(false)
				continue
			}
			s.allocMB(rate * chunk.Seconds())
		}
		s.advanceTicksInState(s.now+trace.Time(chunk), state)
		s.now = s.now.Add(chunk)
		d -= chunk
	}
}

func pickState(r *rand.Rand, mix StateMix) trace.ThreadState {
	x := r.Float64()
	if x < mix.Blocked {
		return trace.StateBlocked
	}
	x -= mix.Blocked
	if x < mix.Waiting {
		return trace.StateWaiting
	}
	x -= mix.Waiting
	if x < mix.Sleeping {
		return trace.StateSleeping
	}
	return trace.StateRunnable
}

// Package replay implements replayable-trace execution: the
// "pseudo-application ... with the aim of reproducing the I/O signature of
// the original application" from the paper's taxonomy.
//
// A Trace holds, per rank, the sequence of I/O operations with their pure
// compute ("think") gaps, plus the inter-rank dependency edges //TRACE
// discovers by throttling. One Builder makes it from trace records at either
// record level: MPI-IO calls for //TRACE, system calls for LANL-Trace's
// raw-trace replayer. Execute replays the trace against a fresh
// simulated cluster: each pseudo-rank sleeps its think time, waits for its
// dependencies, and issues the recorded I/O through the node kernel.
// Fidelity is then judged exactly as the paper suggests: "compare the
// end-to-end run time of both using a utility such as the Linux command
// line time utility."
package replay

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"

	"iotaxo/internal/cluster"
	"iotaxo/internal/sim"
	"iotaxo/internal/vfs"
)

// OpKind is a replayable operation type.
type OpKind int

// The replayable operations.
const (
	OpOpen OpKind = iota
	OpWrite
	OpRead
	OpClose
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("op(%d)", int(k))
	}
	return opKinds[k].text
}

func parseKind(s string) (OpKind, error) {
	for k, names := range opKinds {
		if names.text == s {
			return OpKind(k), nil
		}
	}
	return 0, fmt.Errorf("replay: unknown op kind %q", s)
}

// Op is one replayable operation.
type Op struct {
	Kind    OpKind
	Compute sim.Duration // pure think time before the op (sync waits removed)
	Path    string
	Offset  int64
	Bytes   int64
}

// Dep is a cross-rank ordering edge: (FromRank, FromOp) must complete
// before (ToRank, ToOp) may issue.
type Dep struct {
	FromRank, FromOp int
	ToRank, ToOp     int
}

// Trace is a replayable trace.
type Trace struct {
	Ranks           int
	Ops             [][]Op
	Deps            []Dep
	OriginalElapsed sim.Duration // untraced application elapsed, for fidelity
}

// Validate checks structural invariants: shape, op fields, edge ranges, and
// that every dependency is realizable (no self-rank edges pointing forward in
// ways that deadlock program order is checked at execution; here we check
// bounds). A trace read from outside passes it before anything replays it.
func (t *Trace) Validate() error {
	if t.Ranks <= 0 || len(t.Ops) != t.Ranks {
		return fmt.Errorf("replay: trace has %d rank streams for %d ranks", len(t.Ops), t.Ranks)
	}
	for rank, ops := range t.Ops {
		for k, op := range ops {
			if err := op.check(); err != nil {
				return fmt.Errorf("replay: rank %d op %d: %w", rank, k, err)
			}
		}
	}
	for _, d := range t.Deps {
		if d.FromRank < 0 || d.FromRank >= t.Ranks || d.ToRank < 0 || d.ToRank >= t.Ranks {
			return fmt.Errorf("replay: dep rank out of range: %+v", d)
		}
		if d.FromOp < 0 || d.FromOp >= len(t.Ops[d.FromRank]) {
			return fmt.Errorf("replay: dep source op out of range: %+v", d)
		}
		if d.ToOp < 0 || d.ToOp >= len(t.Ops[d.ToRank]) {
			return fmt.Errorf("replay: dep target op out of range: %+v", d)
		}
		if d.FromRank == d.ToRank {
			return fmt.Errorf("replay: self-rank dependency: %+v", d)
		}
	}
	return nil
}

func (op Op) check() error {
	switch {
	case !op.Kind.valid():
		return fmt.Errorf("unknown kind %d", int(op.Kind))
	case op.Compute < 0:
		return fmt.Errorf("negative compute %d", int64(op.Compute))
	case op.Offset < 0 || op.Bytes < 0:
		return fmt.Errorf("negative offset %d or length %d", op.Offset, op.Bytes)
	case op.Offset > math.MaxInt64-op.Bytes:
		return fmt.Errorf("offset %d plus length %d overflows", op.Offset, op.Bytes)
	}
	return nil
}

// OpCount returns the total operation count.
func (t *Trace) OpCount() int {
	n := 0
	for _, ops := range t.Ops {
		n += len(ops)
	}
	return n
}

// Result is the outcome of a replay.
type Result struct {
	Elapsed sim.Duration
	PerRank []sim.Duration
}

// Fidelity reports the paper's replay-fidelity metric: the absolute
// end-to-end runtime error fraction of the pseudo-application relative to
// the original.
func Fidelity(original, replayed sim.Duration) float64 {
	if original <= 0 {
		return 0
	}
	diff := replayed - original
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) / float64(original)
}

// Execute replays the trace on a fresh cluster. Pseudo-ranks are plain
// kernel processes (the generated pseudo-application does not need MPI).
func Execute(c *cluster.Cluster, tr *Trace) (Result, error) {
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	env := c.Env

	// One completion gate per (rank, op), carved from one slab.
	gates := make([][]gate, tr.Ranks)
	slab := make([]gate, tr.OpCount())
	for r := range gates {
		n := len(tr.Ops[r])
		gates[r], slab = slab[:n:n], slab[n:]
	}
	// Dependency lookup: deps into (rank, op).
	depsInto := make(map[[2]int][]Dep)
	for _, d := range tr.Deps {
		key := [2]int{d.ToRank, d.ToOp}
		depsInto[key] = append(depsInto[key], d)
	}

	perRank := make([]sim.Duration, tr.Ranks)
	var firstErr error

	for rank := 0; rank < tr.Ranks; rank++ {
		rank := rank
		kern := c.Kernels[rank%len(c.Kernels)]
		pc := kern.Spawn(vfs.Cred{UID: 500, GID: 500, User: "replay"})
		env.Go(fmt.Sprintf("replay.rank%d", rank), func(p *sim.Proc) {
			start := p.Now()
			fds := make(map[string]int)
			for k, op := range tr.Ops[rank] {
				if op.Compute > 0 {
					p.Sleep(op.Compute)
				}
				for _, d := range depsInto[[2]int{rank, k}] {
					gates[d.FromRank][d.FromOp].await(p)
				}
				if err := executeOp(p, pc, fds, op); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("replay: rank %d op %d (%v %s): %w", rank, k, op.Kind, op.Path, err)
				}
				gates[rank][k].open(env)
			}
			perRank[rank] = p.Now() - start
		})
	}
	env.Run()
	if firstErr != nil {
		return Result{}, firstErr
	}
	var last sim.Duration
	for _, d := range perRank {
		if d > last {
			last = d
		}
	}
	return Result{Elapsed: last, PerRank: perRank}, nil
}

// gate is one operation's completion: ranks that depend on the operation
// await it, and the operation's own rank opens it once the operation ran.
type gate struct {
	opened  bool
	waiters []func()
}

// await blocks p until g opens; it returns at once when g is open already.
func (g *gate) await(p *sim.Proc) {
	p.Await(func(wake func()) {
		if g.opened {
			wake()
			return
		}
		g.waiters = append(g.waiters, wake)
	})
}

// open opens g and wakes its waiters in wait order, all from one event at
// the current instant.
func (g *gate) open(env *sim.Env) {
	g.opened = true
	if ws := g.waiters; len(ws) > 0 {
		g.waiters = nil
		env.After(0, func() {
			for _, wake := range ws {
				wake()
			}
		})
	}
}

// executeOp runs one op. A write or read of a path with no open descriptor
// opens it first, as an open does.
func executeOp(p *sim.Proc, pc *vfs.ProcCtx, fds map[string]int, op Op) error {
	fd, ok := fds[op.Path]
	if op.Kind == OpClose {
		if !ok {
			return nil // already closed or never opened: tolerate
		}
		delete(fds, op.Path)
		return pc.Close(p, fd)
	}
	if !ok || op.Kind == OpOpen {
		var err error
		if fd, err = pc.Open(p, op.Path, vfs.OCreate|vfs.ORdwr, 0o644); err != nil {
			return err
		}
		fds[op.Path] = fd
	}
	var err error
	switch op.Kind {
	case OpWrite:
		_, err = pc.PWrite(p, fd, op.Offset, op.Bytes)
	case OpRead:
		_, err = pc.PRead(p, fd, op.Offset, op.Bytes)
	}
	return err
}

// --- human-readable serialization (//TRACE emits human-readable traces) ---

// WriteText serializes the trace.
func (t *Trace) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# partrace replayable v1 ranks=%d original_elapsed=%d\n",
		t.Ranks, int64(t.OriginalElapsed))
	for rank, ops := range t.Ops {
		for _, op := range ops {
			fmt.Fprintf(bw, "R%d compute=%d %s %q off=%d len=%d\n",
				rank, int64(op.Compute), op.Kind, op.Path, op.Offset, op.Bytes)
		}
	}
	for _, d := range t.Deps {
		fmt.Fprintf(bw, "DEP %d:%d -> %d:%d\n", d.FromRank, d.FromOp, d.ToRank, d.ToOp)
	}
	return bw.Flush()
}

// maxRanks bounds the rank count a text trace may declare, so that a forged
// header cannot make ParseText allocate without bound.
const maxRanks = 1 << 20

// ParseText inverts WriteText.
func ParseText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	tr := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch {
		case strings.HasPrefix(text, "#"):
			var ranks int
			var orig int64
			if _, err := fmt.Sscanf(text, "# partrace replayable v1 ranks=%d original_elapsed=%d", &ranks, &orig); err == nil {
				if ranks < 1 || ranks > maxRanks {
					return nil, fmt.Errorf("replay: line %d: %d ranks, want 1 to %d", line, ranks, maxRanks)
				}
				tr.Ranks = ranks
				tr.OriginalElapsed = sim.Duration(orig)
				tr.Ops = make([][]Op, ranks)
			}
		case strings.HasPrefix(text, "DEP "):
			var d Dep
			if _, err := fmt.Sscanf(text, "DEP %d:%d -> %d:%d", &d.FromRank, &d.FromOp, &d.ToRank, &d.ToOp); err != nil {
				return nil, fmt.Errorf("replay: line %d: %w", line, err)
			}
			tr.Deps = append(tr.Deps, d)
		case strings.HasPrefix(text, "R"):
			var rank int
			var compute, off, ln int64
			var kindStr, path string
			if _, err := fmt.Sscanf(text, "R%d compute=%d %s %q off=%d len=%d",
				&rank, &compute, &kindStr, &path, &off, &ln); err != nil {
				return nil, fmt.Errorf("replay: line %d: %q: %w", line, text, err)
			}
			kind, err := parseKind(kindStr)
			if err != nil {
				return nil, fmt.Errorf("replay: line %d: %w", line, err)
			}
			if rank < 0 || rank >= len(tr.Ops) {
				return nil, fmt.Errorf("replay: line %d: rank %d out of range", line, rank)
			}
			tr.Ops[rank] = append(tr.Ops[rank], Op{
				Kind: kind, Compute: sim.Duration(compute), Path: path, Offset: off, Bytes: ln,
			})
		default:
			return nil, fmt.Errorf("replay: line %d: unrecognized %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

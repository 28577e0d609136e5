// Solver-throughput benchmark behind `repro -exp solve`: the numbers
// BENCH_solve.json pins. The paper's model construction is dominated
// by repeated SAT solving over the segmented hypothesis (§III), so
// conflicts per second is the solver-side figure of merit the perf
// work optimises — first on a pure CDCL workload (a pigeonhole proof,
// every run an identical full UNSAT refutation), then inside real
// learning runs where the same solver executes the paper's
// solve/refine loop.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/sat"
)

// SolveRow is one solver workload's measurement.
type SolveRow struct {
	Name         string  `json:"name"`
	Status       string  `json:"status"`
	WallMS       float64 `json:"wall_ms"`
	Conflicts    int64   `json:"conflicts"`
	Propagations int64   `json:"propagations"`
	Learned      int64   `json:"learned"`
	ConflictsPS  float64 `json:"conflicts_per_sec"`
	PropsPS      float64 `json:"propagations_per_sec"`
	// States is the learned model size for learning workloads, 0 for
	// raw CNF workloads.
	States int `json:"states,omitempty"`
}

// solvePigeonhole builds the PHP(pigeons, holes) CNF: each pigeon in
// some hole, no two pigeons sharing one. With pigeons = holes+1 it is
// unsatisfiable with an exponential resolution proof — a deterministic,
// conflict-dense CDCL workload.
func solvePigeonhole(pigeons, holes int) *sat.Solver {
	s := sat.New()
	va := func(p, h int) int { return p*holes + h }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		c := make([]sat.Lit, holes)
		for h := 0; h < holes; h++ {
			c[h] = sat.Pos(va(p, h))
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(sat.Neg(va(p1, h)), sat.Neg(va(p2, h)))
			}
		}
	}
	return s
}

// RunSolve measures solver throughput on the pinned workloads: the
// PHP(9,8) refutation, then the full learn loop on the Counter and
// Serial I/O cases (solver effort there includes encoding and
// canonical extraction probing, as it does in production). Results are
// deterministic in everything but wall time.
func RunSolve() ([]SolveRow, error) {
	s := solvePigeonhole(9, 8)
	t0 := time.Now()
	st := s.Solve()
	wall := time.Since(t0)
	rows := []SolveRow{{
		Name:         "php-9-8",
		Status:       st.String(),
		WallMS:       float64(wall.Nanoseconds()) / 1e6,
		Conflicts:    s.Stats.Conflicts,
		Propagations: s.Stats.Propagations,
		Learned:      s.Stats.Learned,
		ConflictsPS:  rate(s.Stats.Conflicts, wall),
		PropsPS:      rate(s.Stats.Propagations, wall),
	}}

	for _, lc := range []struct{ name, short string }{
		{"Counter", "counter"},
		{"Serial I/O Port", "serial"},
	} {
		c, err := CaseByName(lc.name)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		m, err := LearnCase(c, 0)
		if err != nil {
			return nil, fmt.Errorf("solve bench %s: %w", lc.name, err)
		}
		wall := time.Since(t0)
		ls := m.LearnStats
		rows = append(rows, SolveRow{
			Name:         "learn-" + lc.short,
			Status:       "SAT",
			WallMS:       float64(wall.Nanoseconds()) / 1e6,
			Conflicts:    ls.SATConflicts,
			Propagations: ls.SATPropagations,
			Learned:      ls.SATLearned,
			ConflictsPS:  rate(ls.SATConflicts, wall),
			PropsPS:      rate(ls.SATPropagations, wall),
			States:       m.States,
		})
	}
	return rows, nil
}

func rate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// WriteSolveBench writes the rows as the BENCH_solve.json document.
func WriteSolveBench(w io.Writer, rows []SolveRow) error {
	doc := struct {
		Benchmark   string     `json:"benchmark"`
		Description string     `json:"description"`
		GOOS        string     `json:"goos"`
		GOARCH      string     `json:"goarch"`
		Results     []SolveRow `json:"results"`
	}{
		Benchmark:   "solve",
		Description: "SAT solver throughput: conflicts/sec on a PHP(9,8) refutation and inside full learning runs (repro -exp solve -solve-out BENCH_solve.json)",
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Results:     rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

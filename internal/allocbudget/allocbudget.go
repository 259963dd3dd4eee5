// Package allocbudget is the dynamic half of the irlint v4 allocation
// contracts: checked-in per-kernel allocation budgets, enforced by tier-1
// tests. The static analyzers (alloc-hot, append-grow, defer-in-loop,
// iface-dispatch) prove the shape of the hot path; this package pins the
// measured steady-state allocs/op and B/op of the annotated kernels so a
// regression the static layer cannot see — a stdlib change, an escape the
// compiler starts making, a lost buffer reuse — fails CI.
//
// Budgets live in BENCH_BUDGET.json at the module root. `make benchmem`
// re-measures and rewrites the file (ALLOC_BUDGET_RECORD=1), then
// re-runs the tests in enforcement mode against the fresh numbers.
package allocbudget

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// BudgetFile is the checked-in budget table at the module root.
const BudgetFile = "BENCH_BUDGET.json"

// RecordEnv, when set to a non-empty value, switches Gate from
// enforcement to record mode: measured numbers overwrite the entry.
const RecordEnv = "ALLOC_BUDGET_RECORD"

// Entry is one kernel's allocation budget: the steady-state
// allocations and bytes per benchmark operation.
type Entry struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// bytesSlackPct is the enforcement slack on B/op: byte counts wobble
// with amortized growth and size-class rounding where allocation counts
// do not, so bytes regress only past this percentage over budget.
const bytesSlackPct = 25

// Gate benchmarks the kernel in-process and compares it against the
// checked-in budget. In record mode (RecordEnv set) it instead writes
// the measured numbers back to the budget file. The benchmark must
// ReportAllocs or rely on testing.Benchmark's built-in MemAllocs
// tracking (always on for the returned BenchmarkResult).
//
// Budgets are steady-state figures, so a closure that reuses a buffer
// across calls (dst = kernel(..., dst[:0])) must bring that buffer to
// steady state before b.ResetTimer: run the kernel over its inputs once,
// then reset. Per-op figures are integer totals divided by b.N, so a
// one-time cost left inside the timed loop reads as 1 B/op wherever b.N
// is smaller than its byte total, that is, on any machine slow enough.
func Gate(t *testing.T, kernel string, bench func(b *testing.B)) {
	t.Helper()
	if raceEnabled {
		t.Skipf("allocbudget: skipping %s under -race; instrumentation changes allocation counts", kernel)
	}
	res := testing.Benchmark(bench)
	if res.N == 0 {
		t.Fatalf("allocbudget: benchmark for %s did not run", kernel)
	}
	got := Entry{AllocsPerOp: res.AllocsPerOp(), BytesPerOp: res.AllocedBytesPerOp()}

	path, err := budgetPath()
	if err != nil {
		t.Fatalf("allocbudget: %v", err)
	}
	if os.Getenv(RecordEnv) != "" {
		if err := record(path, kernel, got); err != nil {
			t.Fatalf("allocbudget: recording %s: %v", kernel, err)
		}
		t.Logf("allocbudget: recorded %s: %d allocs/op, %d B/op", kernel, got.AllocsPerOp, got.BytesPerOp)
		return
	}

	budgets, err := load(path)
	if err != nil {
		t.Fatalf("allocbudget: %v", err)
	}
	want, ok := budgets[kernel]
	if !ok {
		t.Fatalf("allocbudget: no budget for %s in %s; run `make benchmem` to record one", kernel, BudgetFile)
	}
	if got.AllocsPerOp > want.AllocsPerOp {
		t.Errorf("allocbudget: %s allocates %d allocs/op, budget is %d; %s",
			kernel, got.AllocsPerOp, want.AllocsPerOp, totals(res))
	}
	if limit := want.BytesPerOp + want.BytesPerOp*bytesSlackPct/100; got.BytesPerOp > limit {
		t.Errorf("allocbudget: %s allocates %d B/op, budget is %d (+%d%% slack = %d); %s",
			kernel, got.BytesPerOp, want.BytesPerOp, bytesSlackPct, limit, totals(res))
	}
}

// totals reports the measured run behind an over-budget per-op figure.
// A total that grows with N is a per-call allocation to fix; a fixed
// total divided by a small N is one-time set-up left in the timed loop,
// which belongs before b.ResetTimer, not in a re-recorded budget.
func totals(res testing.BenchmarkResult) string {
	return fmt.Sprintf("measured %d allocs and %d B in total over N=%d: "+
		"a total that grows with N is a per-call regression to fix; "+
		"a fixed total is one-time set-up to move before b.ResetTimer, not a budget to re-record",
		res.MemAllocs, res.MemBytes, res.N)
}

// budgetPath walks up from the working directory to the module root
// (the directory holding go.mod) and returns the budget file path.
func budgetPath() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, BudgetFile), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

func load(path string) (map[string]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]Entry{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]Entry)
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return out, nil
}

// record read-modify-writes one entry, keeping the file sorted by key
// so re-recording produces minimal diffs.
func record(path, kernel string, e Entry) error {
	budgets, err := load(path)
	if err != nil {
		return err
	}
	budgets[kernel] = e
	keys := make([]string, 0, len(budgets))
	for k := range budgets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Hand-rolled ordered emission: encoding/json sorts map keys too,
	// but an explicit object keeps the format obvious and stable.
	var buf []byte
	buf = append(buf, "{\n"...)
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(budgets[k])
		buf = append(buf, "  "...)
		buf = append(buf, kb...)
		buf = append(buf, ": "...)
		buf = append(buf, vb...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(path, buf, 0o644)
}

package main

import (
	"os"
	"path/filepath"
	"testing"
)

// smokeEnv builds the daemon binaries once for the end-to-end smoke tests.
func smokeEnv(t *testing.T) (*env, *contract) {
	t.Helper()
	if testing.Short() {
		t.Skip("end-to-end smoke run builds and starts quercd")
	}
	e, err := newEnv("..")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.cleanup)
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	c, err := loadContract(e.root)
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

// TestSocketSmoke runs a short repeated-text workload against a real quercd,
// untraced and traced, and checks both result shapes against BENCHMARK.json.
func TestSocketSmoke(t *testing.T) {
	e, c := smokeEnv(t)
	sp := spec{name: "smoke", kind: "repeat", openRate: 400, closedRate: 2000, warm: poolSize + 200}
	for _, trace := range []bool{false, true} {
		res, err := runSocket(e, sp, 3, 4, trace)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v", trace, res.Correct, res.Attempted, res.Failed, res.problems)
		}
		if err := c.checkMetrics(res, trace); err != nil {
			t.Errorf("trace=%v: %v", trace, err)
		}
	}
	if _, err := os.Stat(filepath.Join(traceDir(e), "trace_smoke.json")); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(e.tmp, "*")); len(e.procs) != 0 {
		t.Errorf("%d daemons still tracked after the runs (scratch: %v)", len(e.procs), left)
	}
}

// TestDispatchSmoke runs a short dispatcher workload and checks its ledger.
func TestDispatchSmoke(t *testing.T) {
	e, c := smokeEnv(t)
	res, err := runDispatch(e, spec{name: "smoke", kind: "dispatch", closedRate: 60000}, 3, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 180000 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.problems)
	}
	if err := c.checkMetrics(res, false); err != nil {
		t.Error(err)
	}
	if acc := res.Metrics["account_acc"].Value; acc != 1 {
		t.Errorf("account_acc = %v with a balanced ledger, want 1", acc)
	}
}

// TestDispatchLedgerCatchesRefusals checks that a clean drive passes the
// ledger check, that completions are sampled one in dispatchSample, and that
// a refused Enqueue fails the check.
func TestDispatchLedgerCatchesRefusals(t *testing.T) {
	rig, err := newDispatchRig(planes{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	pool := labeledPool(genCorpus(1), 64)
	rig.drive(pool, 100, 0, false)
	if err := rig.close(); err != nil {
		t.Fatalf("clean drive reported %v", err)
	}
	if got := len(rig.taken()); got != (100+dispatchSample-1)/dispatchSample {
		t.Errorf("sampled %d completions of 100, want one in %d", got, dispatchSample)
	}
	rig.refused = 1 // what a full queue would have counted
	rig.attempts++
	if err := rig.close(); err == nil {
		t.Error("a refused enqueue passed the ledger check")
	}
}

package devnet

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"decloud/internal/chaos"
	"decloud/internal/metro"
)

func writeFileT(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConvergenceDivergence(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.chain")
	b := filepath.Join(dir, "b.chain")
	writeFileT(t, a, "{}\n")
	writeFileT(t, b, "{}{}\n")
	if _, err := CheckConvergence([]string{a, b}, 0); err == nil {
		t.Fatal("divergent replicas must not converge")
	} else if !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("want divergence error, got: %v", err)
	}
}

func TestCheckConvergenceMissingReplica(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.chain")
	writeFileT(t, a, "")
	if _, err := CheckConvergence([]string{a, filepath.Join(dir, "gone.chain")}, 0); err == nil {
		t.Fatal("missing replica must fail")
	}
	if _, err := CheckConvergence(nil, 0); err == nil {
		t.Fatal("empty replica set must fail")
	}
}

func TestCheckConvergenceCorruptChain(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.chain")
	writeFileT(t, a, `{"not":"a block"`)
	if _, err := CheckConvergence([]string{a}, 0); err == nil {
		t.Fatal("corrupt replica must fail validation")
	}
}

func TestCheckConvergenceMinHeight(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.chain")
	writeFileT(t, a, "") // empty chain file = height 0, valid
	if _, err := CheckConvergence([]string{a}, 1); err == nil {
		t.Fatal("height 0 must fail a minHeight of 1")
	}
	res, err := CheckConvergence([]string{a}, 0)
	if err != nil {
		t.Fatalf("empty chain at minHeight 0: %v", err)
	}
	if res.Height != 0 || res.Replicas != 1 {
		t.Fatalf("unexpected result: %+v", *res)
	}
}

func reportLine(t *testing.T, order string, digest [32]byte, kind string) string {
	t.Helper()
	data, err := json.Marshal(ReportLine{
		Order:  order,
		Digest: hex.EncodeToString(digest[:]),
		Kind:   kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

func TestReadReportsTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.report")
	var d [32]byte
	d[0] = 1
	// A SIGKILL mid-write leaves a torn final line; the auditor must
	// keep the intact lines and tolerate the tail.
	writeFileT(t, path, reportLine(t, "r-1", d, "request")+`{"order":"r-2","dig`)
	got, err := readReports([]string{path})
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(got) != 1 || got[d] != "r-1" {
		t.Fatalf("unexpected submitted set: %v", got)
	}
}

func TestReadReportsMalformedInterior(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.report")
	var d [32]byte
	d[0] = 2
	writeFileT(t, path, "garbage line\n"+reportLine(t, "r-1", d, "request"))
	if _, err := readReports([]string{path}); err == nil {
		t.Fatal("malformed interior line must fail the audit")
	}
}

func TestReadReportsMissingFileTolerated(t *testing.T) {
	got, err := readReports([]string{filepath.Join(t.TempDir(), "never.report")})
	if err != nil {
		t.Fatalf("missing report (participant killed before first order): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty set, got %v", got)
	}
}

func TestCheckConservationUnreportedBid(t *testing.T) {
	// An empty report set against any non-empty chain must fail — use the
	// in-process role test's artifacts shape: simplest is a synthetic
	// check through readReports + an absent chain file error path.
	if _, err := CheckConservation(filepath.Join(t.TempDir(), "no.chain"), nil); err == nil {
		t.Fatal("missing chain file must fail")
	}
}

func TestTopologyDefaults(t *testing.T) {
	if _, err := (Topology{}).withDefaults(); err == nil {
		t.Fatal("zero topology must be rejected")
	}
	if _, err := (Topology{Miners: 1, Participants: 1}).withDefaults(); err == nil {
		t.Fatal("topology without Dir must be rejected")
	}
	top, err := (Topology{Miners: 3, Participants: 2, Dir: t.TempDir()}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if top.Rate <= 0 || top.Soak <= 0 {
		t.Fatalf("defaults not applied: %+v", top)
	}
	if top.Incremental || top.MaxHops != 0 {
		t.Fatalf("a single market must not pick up federation defaults: %+v", top)
	}
	// Federation implies a carrying market and the shared hop budget.
	fed, err := (Topology{Miners: 1, Participants: 2, Metros: 2, Dir: t.TempDir()}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if !fed.Incremental || fed.MaxHops != metro.DefaultMaxHops {
		t.Fatalf("federation defaults not derived: %+v", fed)
	}
	if _, err := (Topology{Miners: 1, Participants: 1, Metros: 2, Dir: t.TempDir()}).withDefaults(); err == nil {
		t.Fatal("fewer participants than metros must be rejected")
	}
}

func TestBuildPlanPartitionSplitsEndpoints(t *testing.T) {
	top, err := (Topology{
		Miners: 3, Participants: 4, Dir: t.TempDir(),
		Partition: true, Soak: 9 * time.Second,
	}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(top, []string{"m0", "m1", "m2"}, []string{"p0", "p1", "p2", "p3"})
	if len(plan.Partitions) != 1 {
		t.Fatalf("expected one partition, got %d", len(plan.Partitions))
	}
	cut := plan.Partitions[0]
	// The producer m0 keeps a verifier; the far side keeps a miner.
	mid := int64(30) // 3s into a 9s soak at 100ms ticks
	if !plan.Partitioned(mid, "m0", "m2") {
		t.Fatal("m0 and m2 must be severed mid-window")
	}
	if plan.Partitioned(mid, "m0", "m1") {
		t.Fatal("m0 and m1 must stay together")
	}
	if plan.Partitioned(cut.Until, "m0", "m2") {
		t.Fatal("partition must heal at window end")
	}
	// Votes are exempted from background chaos but not from the cut.
	if got := plan.PlanDelivery("m0", "m1", "vote", [32]byte{1}); got != nil {
		t.Fatalf("background chaos must not touch votes, got %v", got)
	}
	plan.SetNow(mid)
	if got := plan.PlanDelivery("m0", "m2", "vote", [32]byte{2}); got == nil || len(got) != 0 {
		t.Fatalf("the cut must drop cross-side votes, got %v", got)
	}
}

func TestPlanSurvivesConfigRoundTrip(t *testing.T) {
	top, err := (Topology{
		Miners: 2, Participants: 2, Dir: t.TempDir(),
		Partition: true, Soak: 6 * time.Second,
	}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	plan := buildPlan(top, []string{"m0", "m1"}, []string{"p0", "p1"})
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatalf("a devnet plan must serialize: %v", err)
	}
	var back chaos.Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != plan.Seed || len(back.Partitions) != len(plan.Partitions) {
		t.Fatalf("plan did not survive the round trip: seed %d, %d partitions",
			back.Seed, len(back.Partitions))
	}
	// The decision stream must be identical in the child process.
	k := [32]byte{9}
	if a, b := plan.PlanDelivery("m0", "p0", "bid", k), back.PlanDelivery("m0", "p0", "bid", k); len(a) != len(b) {
		t.Fatalf("fault decisions diverge after round trip: %v vs %v", a, b)
	}
}

func TestRunRoleErrors(t *testing.T) {
	if code := RunRole("gardener", ""); code == 0 {
		t.Fatal("unknown role must exit non-zero")
	}
	if code := RunRole("miner", filepath.Join(t.TempDir(), "no.json")); code == 0 {
		t.Fatal("missing config must exit non-zero")
	}
	if code := RunRole("participant", filepath.Join(t.TempDir(), "no.json")); code == 0 {
		t.Fatal("missing config must exit non-zero")
	}
}

func TestWriteReadyAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ready")
	if err := writeReady(path, "127.0.0.1:1234"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "127.0.0.1:1234\n" {
		t.Fatalf("unexpected ready payload %q", data)
	}
	if err := writeReady("", "ignored"); err != nil {
		t.Fatal("empty path must be a no-op")
	}
}

func TestConnectAllRequiresOnePeer(t *testing.T) {
	calls := 0
	dial := func(addr string) error {
		calls++
		if addr == "good" {
			return nil
		}
		return os.ErrDeadlineExceeded
	}
	if err := connectAll(dial, []string{"good"}); err != nil {
		t.Fatalf("reachable peer: %v", err)
	}
	if err := connectAll(dial, nil); err != nil {
		t.Fatalf("no peers configured is fine: %v", err)
	}
}

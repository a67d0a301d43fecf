package trace

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"decloud/internal/resource"
)

func TestM5Catalog(t *testing.T) {
	cat := M5Catalog()
	if len(cat) != 4 {
		t.Fatalf("catalog size = %d", len(cat))
	}
	// The paper's provider range: 2–16 cores, 8–64 GB.
	if cat[0].VCPU != 2 || cat[len(cat)-1].VCPU != 16 {
		t.Fatalf("vCPU range wrong: %v..%v", cat[0].VCPU, cat[len(cat)-1].VCPU)
	}
	if cat[0].MemGiB != 8 || cat[len(cat)-1].MemGiB != 64 {
		t.Fatalf("RAM range wrong")
	}
	// Pricing doubles with size.
	for i := 1; i < len(cat); i++ {
		if cat[i].PricePerHour <= cat[i-1].PricePerHour {
			t.Fatal("prices must increase with size")
		}
	}
	v := cat[1].Resources()
	if v[resource.CPU] != 4 || v[resource.RAM] != 16 || v[resource.Disk] != 200 {
		t.Fatalf("Resources() = %v", v)
	}
	if got := cat[0].CostFor(10); got != 0.96 {
		t.Fatalf("CostFor = %v", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(7).SampleN(50)
	b := NewGenerator(7).SampleN(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorShape(t *testing.T) {
	tasks := NewGenerator(42).SampleN(5000)
	var cpus, durations []float64
	small := 0
	for _, task := range tasks {
		if task.CPU <= 0 || task.CPU > 1 || task.RAM <= 0 || task.RAM > 1 || task.Disk <= 0 || task.Disk > 1 {
			t.Fatalf("resource out of (0,1]: %+v", task)
		}
		if task.DurationSec < 10 || task.DurationSec > 12*3600 {
			t.Fatalf("duration out of range: %d", task.DurationSec)
		}
		if task.Priority < 0 || task.Priority > 11 {
			t.Fatalf("priority out of range: %d", task.Priority)
		}
		cpus = append(cpus, task.CPU)
		durations = append(durations, float64(task.DurationSec))
		if task.CPU <= 0.1 {
			small++
		}
	}
	// Google-trace shape: the vast majority of tasks are small.
	if frac := float64(small) / float64(len(tasks)); frac < 0.7 {
		t.Fatalf("small-task fraction = %v, want ≥ 0.7", frac)
	}
	// Heavy-tailed durations: mean well above median.
	slices.Sort(durations)
	var sum float64
	for _, d := range durations {
		sum += d
	}
	n := len(durations)
	mean, med := sum/float64(n), (durations[(n-1)/2]+durations[n/2])/2
	if mean < med*1.3 {
		t.Fatalf("durations not heavy-tailed: mean=%v median=%v", mean, med)
	}
	// CPU must show the discrete steps: 0.025 should be a common value.
	step := 0
	for _, c := range cpus {
		if c == 0.025 {
			step++
		}
	}
	if float64(step)/float64(len(cpus)) < 0.15 {
		t.Fatalf("0.025 step mass = %v, want ≥ 0.15", float64(step)/float64(len(cpus)))
	}
}

const sampleCSV = `600000000,,123,0,,0,user1,2,9,0.0625,0.03185,0.000301
600000001,,123,1,,0,user1,2,9,0.125,0.06371,
600000002,,124,0,,1,user2,2,0,0.5,0.25,0.01
600000003,,125,0,,0,user3,0,0,,,
600000004,,126,0,,0,user4,1,8,0.25,0.125,0.0004
short,row
`

func TestParseTaskEvents(t *testing.T) {
	tasks, err := ParseTaskEvents(strings.NewReader(sampleCSV), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rows: #1 and #2 are SUBMIT with resources; #3 is a SCHEDULE event
	// (type 1) → skipped; #4 has empty resources → skipped; #5 SUBMIT ok;
	// the short row is skipped.
	if len(tasks) != 3 {
		t.Fatalf("parsed %d tasks, want 3", len(tasks))
	}
	if tasks[0].CPU != 0.0625 || tasks[0].RAM != 0.03185 {
		t.Fatalf("task 0 = %+v", tasks[0])
	}
	// Missing disk defaults to a small epsilon.
	if tasks[1].Disk != 0.001 {
		t.Fatalf("missing disk should default: %+v", tasks[1])
	}
	for _, task := range tasks {
		if task.DurationSec <= 0 {
			t.Fatal("durations must be synthesized")
		}
	}
}

func TestParseTaskEventsLimit(t *testing.T) {
	tasks, err := ParseTaskEvents(strings.NewReader(sampleCSV), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 {
		t.Fatalf("limit ignored: %d", len(tasks))
	}
}

func TestParseTaskEventsEmpty(t *testing.T) {
	if _, err := ParseTaskEvents(strings.NewReader(""), 0); err != ErrNoTasks {
		t.Fatalf("want ErrNoTasks, got %v", err)
	}
}

func TestLoadTaskEventsCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "part-00000-of-00500.csv")
	if err := os.WriteFile(path, []byte(sampleCSV), 0o600); err != nil {
		t.Fatal(err)
	}
	tasks, err := LoadTaskEventsCSV(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("loaded %d tasks", len(tasks))
	}
	if _, err := LoadTaskEventsCSV(filepath.Join(dir, "missing.csv"), 0); err == nil {
		t.Fatal("missing file should error")
	}
}

const machineCSV = `0,1,0,platformA,0.5,0.2497
0,2,0,platformA,1,0.5
300,1,1,platformA,0.5,0.2497
0,3,0,platformB,0.25,0.125
0,2,0,platformA,1,0.5
bad,row
0,4,0,platformB,,0.1
`

func TestParseMachineEvents(t *testing.T) {
	machines, err := ParseMachineEvents(strings.NewReader(machineCSV), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Machines 1, 2, 3 added (machine 2's duplicate ADD deduplicated;
	// the REMOVE event for 1 ignored; machine 4 lacks a CPU capacity).
	if len(machines) != 3 {
		t.Fatalf("machines = %d, want 3", len(machines))
	}
	if machines[0].ID != 1 || machines[0].CPU != 0.5 {
		t.Fatalf("machine 0 = %+v", machines[0])
	}
	if machines[1].ID != 2 || machines[1].CPU != 1 || machines[1].RAM != 0.5 {
		t.Fatalf("machine 1 = %+v", machines[1])
	}
	limited, err := ParseMachineEvents(strings.NewReader(machineCSV), 1)
	if err != nil || len(limited) != 1 {
		t.Fatalf("limit: %v %d", err, len(limited))
	}
	if _, err := ParseMachineEvents(strings.NewReader(""), 0); err != ErrNoTasks {
		t.Fatalf("empty: %v", err)
	}
}

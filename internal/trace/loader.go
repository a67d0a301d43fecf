package trace

import (
	"compress/gzip"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The public Google cluster-usage trace (clusterdata-2011) distributes
// task_events as headerless CSV shards with these column positions.
const (
	colTimestamp   = 0
	colEventType   = 5
	colCPURequest  = 9
	colRAMRequest  = 10
	colDiskRequest = 11
	minColumns     = 12
)

// eventSubmit is the SUBMIT event type in the trace schema; only submit
// rows carry fresh demand.
const eventSubmit = 0

// ErrNoTasks is returned when a file parses but yields no usable rows.
var ErrNoTasks = errors.New("trace: no usable task rows found")

// LoadTaskEventsCSV reads tasks from a Google cluster-usage trace
// task_events shard (plain or gzip CSV, headerless). Rows that are not
// SUBMIT events or lack resource requests are skipped. The trace has no
// explicit durations in task_events, so DurationSec is synthesized from
// the generator's duration model using the row index as a deterministic
// seed offset.
func LoadTaskEventsCSV(path string, limit int) ([]Task, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: open %s: %w", path, err)
	}
	defer f.Close()

	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	return ParseTaskEvents(r, limit)
}

// ParseTaskEvents parses task_events CSV content from a reader.
func ParseTaskEvents(r io.Reader, limit int) ([]Task, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // trace rows may have trailing omissions
	gen := NewGenerator(1)  // deterministic duration synthesis

	var tasks []Task
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: parse: %w", err)
		}
		if len(rec) < minColumns {
			continue
		}
		evt, err := strconv.Atoi(strings.TrimSpace(rec[colEventType]))
		if err != nil || evt != eventSubmit {
			continue
		}
		cpu, err1 := parseFraction(rec[colCPURequest])
		ram, err2 := parseFraction(rec[colRAMRequest])
		disk, err3 := parseFraction(rec[colDiskRequest])
		if err1 != nil || err2 != nil || cpu <= 0 {
			continue
		}
		if err3 != nil {
			disk = 0.001
		}
		tasks = append(tasks, Task{
			CPU:         clamp01(cpu),
			RAM:         clamp01(ram),
			Disk:        clamp01(disk),
			DurationSec: gen.duration(),
		})
		if limit > 0 && len(tasks) >= limit {
			break
		}
	}
	if len(tasks) == 0 {
		return nil, ErrNoTasks
	}
	return tasks, nil
}

func parseFraction(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, errors.New("empty")
	}
	return strconv.ParseFloat(s, 64)
}

// The machine_events table of the trace (headerless CSV):
// timestamp, machine ID, event type, platform ID, CPUs, memory.
const (
	colMachineEvent  = 2
	colMachineCPU    = 4
	colMachineRAM    = 5
	minMachineFields = 6
)

// machineEventAdd is the ADD event in the machine_events schema.
const machineEventAdd = 0

// Machine is one cluster machine from the trace, with capacities
// normalized to the largest machine in the cell (the trace's own
// normalization).
type Machine struct {
	ID       int64
	CPU, RAM float64
}

// ParseMachineEvents parses machine_events CSV content. Only ADD events
// with capacities are kept, deduplicated by machine ID — with real data
// this gives the genuine supply-side shape of the cluster instead of the
// EC2 M5 catalog.
func ParseMachineEvents(r io.Reader, limit int) ([]Machine, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	seen := make(map[int64]bool)
	var machines []Machine
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: parse machines: %w", err)
		}
		if len(rec) < minMachineFields {
			continue
		}
		evt, err := strconv.Atoi(strings.TrimSpace(rec[colMachineEvent]))
		if err != nil || evt != machineEventAdd {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimSpace(rec[1]), 10, 64)
		if err != nil || seen[id] {
			continue
		}
		cpu, err1 := parseFraction(rec[colMachineCPU])
		ram, err2 := parseFraction(rec[colMachineRAM])
		if err1 != nil || err2 != nil || cpu <= 0 || ram <= 0 {
			continue
		}
		seen[id] = true
		machines = append(machines, Machine{ID: id, CPU: clamp01(cpu), RAM: clamp01(ram)})
		if limit > 0 && len(machines) >= limit {
			break
		}
	}
	if len(machines) == 0 {
		return nil, ErrNoTasks
	}
	return machines, nil
}

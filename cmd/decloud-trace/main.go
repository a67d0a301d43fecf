// Command decloud-trace works with DeCloud's workload data sources:
//
//	decloud-trace catalog                  print the EC2 M5 provider catalog
//	decloud-trace generate [-n N] [-seed S]  emit N synthetic Google-trace tasks as CSV
//	decloud-trace inspect FILE [-limit N]  summarize a real task_events CSV shard
package main

import (
	"flag"
	"fmt"
	"os"

	"decloud/internal/experiments"
	"decloud/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "catalog":
		catalog()
	case "generate":
		generate(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: decloud-trace catalog | generate [-n N] [-seed S] | inspect FILE [-limit N]")
	os.Exit(2)
}

func catalog() {
	fmt.Printf("%-12s %6s %8s %10s %10s\n", "type", "vcpu", "mem_gib", "disk_gib", "usd_hour")
	for _, it := range trace.M5Catalog() {
		fmt.Printf("%-12s %6.0f %8.0f %10.0f %10.3f\n",
			it.Name, it.VCPU, it.MemGiB, it.StorageGiB, it.PricePerHour)
	}
}

func generate(args []string) {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	n := fs.Int("n", 1000, "number of tasks")
	seed := fs.Int64("seed", 1, "random seed")
	_ = fs.Parse(args)

	gen := trace.NewGenerator(*seed)
	fmt.Println("cpu,ram,disk,duration_sec,priority")
	for _, task := range gen.SampleN(*n) {
		fmt.Printf("%.6f,%.6f,%.6f,%d,%d\n", task.CPU, task.RAM, task.Disk, task.DurationSec, task.Priority)
	}
}

func inspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	limit := fs.Int("limit", 0, "max rows to read (0 = all)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tasks, err := trace.LoadTaskEventsCSV(fs.Arg(0), *limit)
	if err != nil {
		fmt.Fprintf(os.Stderr, "decloud-trace: %v\n", err)
		os.Exit(1)
	}
	var cpu, ram, disk []float64
	for _, task := range tasks {
		cpu = append(cpu, task.CPU)
		ram = append(ram, task.RAM)
		disk = append(disk, task.Disk)
	}
	fmt.Printf("tasks: %d\n", len(tasks))
	fmt.Printf("cpu:  %s\n", experiments.Summarize(cpu))
	fmt.Printf("ram:  %s\n", experiments.Summarize(ram))
	fmt.Printf("disk: %s\n", experiments.Summarize(disk))
	fmt.Printf("cpu p50=%.4f p90=%.4f p99=%.4f\n",
		experiments.Percentile(cpu, 50), experiments.Percentile(cpu, 90), experiments.Percentile(cpu, 99))
}

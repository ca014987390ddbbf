package astra

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/graph"
	"repro/internal/simtime"
)

// DeviceUtilization summarises one device's activity over an executed
// graph: busy fraction per resource class.
type DeviceUtilization struct {
	Device  int
	Compute float64
	Network float64
	HostDMA float64
}

// Utilizations aggregates per-device utilisation from an execution
// result, sorted by device ID. Devices appear if any of their resources
// were touched.
func Utilizations(r Result) []DeviceUtilization {
	frac := func(class graph.ResourceClass, dev int) float64 {
		if r.Makespan == 0 {
			return 0
		}
		return float64(r.Busy(graph.Resource{Class: class, Device: dev})) / float64(r.Makespan)
	}
	var out []DeviceUtilization
	for dev := range r.devices {
		touched := false
		for class := range len(r.used) / r.devices {
			touched = touched || r.used[class*r.devices+dev]
		}
		if !touched {
			continue
		}
		out = append(out, DeviceUtilization{
			Device:  dev,
			Compute: frac(graph.ResCompute, dev),
			Network: frac(graph.ResNetwork, dev),
			HostDMA: frac(graph.ResHostDMA, dev),
		})
	}
	return out
}

// WriteUtilizationReport renders a per-device utilisation table, the
// at-a-glance view of where an iteration's time went.
func WriteUtilizationReport(w io.Writer, r Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "device\tcompute\tnetwork\thost-dma\n")
	for _, u := range Utilizations(r) {
		fmt.Fprintf(tw, "%d\t%.1f%%\t%.1f%%\t%.1f%%\n",
			u.Device, 100*u.Compute, 100*u.Network, 100*u.HostDMA)
	}
	fmt.Fprintf(tw, "makespan\t%v\t(compute %v, comm %v)\t\n",
		r.Makespan, r.ComputeTime, r.CommTime)
	return tw.Flush()
}

// WriteCriticalPathReport renders the critical path of an executed graph:
// each node on the longest finish chain with its span and wait time (gap
// between its dependencies finishing and its start — resource contention).
func WriteCriticalPathReport(w io.Writer, g *graph.Graph, r Result) error {
	path := CriticalPath(g, r)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "node\tkind\tstart\tend\twait\n")
	var prevEnd simtime.Time
	for _, id := range path {
		n := g.Nodes[id]
		t := r.Timings[id]
		wait := t.Start.Sub(prevEnd)
		if wait < 0 {
			wait = 0
		}
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%v\n", n.Label, n.Kind, t.Start, t.End, wait)
		prevEnd = t.End
	}
	return tw.Flush()
}

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"morphing/internal/dataset"
	"morphing/internal/graph"
)

// cmdConvert turns an edge-list file (or a generated dataset recipe)
// into the v2 binary graph format: optionally degree-renumbered,
// optionally delta-varint compressed, always mmap-openable. It prints a
// footprint summary so operators can judge the storage economics before
// shipping a file to a mining box.
func cmdConvert(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input edge-list file (same syntax as the text codec: 'v label' and 'u v' lines)")
	graphName := fs.String("graph", "", "generate the input from a dataset recipe instead of -in (MI, MG, PR, OK, FR)")
	scale := fs.Float64("scale", 1.0, "dataset scale factor (with -graph)")
	out := fs.String("out", "", "output path for the v2 binary graph (required)")
	renumber := fs.String("renumber", "none", "vertex renumbering: degree (ascending-degree order, hubs last) or none")
	compress := fs.String("compress", "on", "delta-varint adjacency compression: on or off")
	block := fs.Int("block", graph.DefaultBlockSize, "adjacency block size in elements (with -compress=on)")
	verify := fs.Bool("verify", false, "re-open the written file and run the full O(E) verification")
	quiet := fs.Bool("q", false, "suppress progress lines on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("convert takes no positional arguments")
	}
	if (*in == "") == (*graphName == "") {
		return fmt.Errorf("convert needs exactly one of -in or -graph")
	}
	if *out == "" {
		return fmt.Errorf("convert needs -out")
	}
	switch *renumber {
	case "degree", "none":
	default:
		return fmt.Errorf("unknown -renumber %q (want degree or none)", *renumber)
	}
	switch *compress {
	case "on", "off":
	default:
		return fmt.Errorf("unknown -compress %q (want on or off)", *compress)
	}

	var progress func(graph.LoadProgress)
	if !*quiet {
		progress = func(p graph.LoadProgress) {
			if p.Done {
				fmt.Fprintf(stderr, "convert: pass %d done (%d lines)\n", p.Pass, p.Lines)
			} else {
				fmt.Fprintf(stderr, "convert: pass %d: %d lines...\n", p.Pass, p.Lines)
			}
		}
	}

	t0 := time.Now()
	var g *graph.Graph
	var err error
	if *in != "" {
		g, err = graph.LoadEdgeListFile(*in, progress)
	} else {
		var rec dataset.Recipe
		rec, err = dataset.ByName(*graphName)
		if err == nil {
			g, err = rec.Scaled(*scale).Generate()
		}
	}
	if err != nil {
		return err
	}
	loadTime := time.Since(t0)

	var renumTime time.Duration
	if *renumber == "degree" {
		t := time.Now()
		g = graph.RenumberByDegree(g)
		renumTime = time.Since(t)
	}

	nv, ne := g.NumVertices(), g.NumEdges()
	plainBytes := 8*uint64(nv+1) + 4*2*ne
	if g.Labeled() {
		plainBytes += 4 * uint64(nv)
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	var compTime, writeTime time.Duration
	var fp graph.Footprint
	if *compress == "on" {
		t := time.Now()
		c, err := graph.Compress(g, *block)
		if err != nil {
			f.Close()
			return err
		}
		compTime = time.Since(t)
		fp = c.Footprint()
		t = time.Now()
		err = c.WriteBinary2(f)
		writeTime = time.Since(t)
		if err != nil {
			f.Close()
			return err
		}
	} else {
		t := time.Now()
		err = g.WriteBinary2(f)
		writeTime = time.Since(t)
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "graph:        %d vertices, %d edges (labeled=%v, renumber=%s)\n",
		nv, ne, g.Labeled(), *renumber)
	fmt.Fprintf(w, "load:         %v   renumber: %v   compress: %v   write: %v\n",
		loadTime.Round(time.Millisecond), renumTime.Round(time.Millisecond),
		compTime.Round(time.Millisecond), writeTime.Round(time.Millisecond))
	fmt.Fprintf(w, "plain CSR:    %d bytes (%.2f bytes/edge directed)\n",
		plainBytes, float64(plainBytes)/float64(2*ne))
	if *compress == "on" {
		fmt.Fprintf(w, "compressed:   %d stream + %d index + %d label bytes (%.2f bytes/edge)\n",
			fp.StreamBytes, fp.IndexBytes, fp.LabelBytes, fp.BytesPerEdge)
		fmt.Fprintf(w, "blocks:       %d (size %d, max encoded block %d bytes)\n",
			fp.Blocks, *block, fp.MaxBlockBytes)
		fmt.Fprintf(w, "hot rows:     %d bytes on the heap once mined (highest-degree rows kept decoded, index included)\n",
			fp.HotBytes)
		fmt.Fprintf(w, "ratio:        %.2fx smaller than plain\n",
			float64(plainBytes)/float64(fp.StreamBytes+fp.IndexBytes+fp.LabelBytes))
	}
	fmt.Fprintf(w, "file:         %s (%d bytes)\n", *out, st.Size())

	if *verify {
		h, err := graph.Open(*out, graph.OpenOptions{Verify: true})
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		mapped := h.Mapped()
		h.Close()
		fmt.Fprintf(w, "verify:       ok (mmap=%v)\n", mapped)
	}
	return nil
}

// Command p3dump renders flight-recorder dump files (the .p3dump files of
// a cmd/netpipe -obs bundle or of soak's failure artifacts) as
// human-readable reports.
//
//	p3dump crash.p3dump                 # occupancy table + merged timeline
//	p3dump -spans crash.p3dump          # list causal span ids present
//	p3dump -span 17 crash.p3dump        # one message's hop-by-hop path
//	p3dump -chrome out.json crash.p3dump  # chrome-trace timeline (Perfetto)
package main

import (
	"flag"
	"fmt"
	"os"

	"portals3/internal/flightrec"
)

func main() {
	span := flag.Uint64("span", 0, "render only this causal span's hop-by-hop timeline")
	spans := flag.Bool("spans", false, "list the causal span ids present in the dump")
	chrome := flag.String("chrome", "", "write a chrome-trace timeline to this file instead of text")
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	for _, path := range flag.Args() {
		if err := render(path, *span, *spans, *chrome); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func render(path string, span uint64, listSpans bool, chrome string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := flightrec.Decode(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	switch {
	case chrome != "":
		out, err := os.Create(chrome)
		if err != nil {
			return err
		}
		if err := d.WriteChrome(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("%s: %d nodes, %d spans -> %s\n", path, len(d.Nodes), len(d.Spans()), chrome)
	case listSpans:
		fmt.Printf("%s: %s at %v (trigger %s)\n", path, d.Reason, d.At, d.Trigger)
		for _, s := range d.Spans() {
			fmt.Printf("  span %-8d %d events\n", s, len(d.Span(s)))
		}
	case span != 0:
		d.RenderSpan(os.Stdout, span)
	default:
		d.RenderText(os.Stdout)
	}
	return nil
}

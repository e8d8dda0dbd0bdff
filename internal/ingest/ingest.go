// Package ingest reads a design once: netlist bytes and their format in,
// the analysis of the swept design out. The daemon's uploads and reloads
// and the CLI's registry-facing commands all read a design through
// Analyze, so their digests agree by construction. The netlist is parsed
// (BLIF is technology-mapped), checked and swept; the sweep keeps the
// Validate and topological-order memos, so the analysis repeats neither.
package ingest

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/blif"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/techmap"
	"repro/internal/verilog"
)

// A ReadError is a netlist refused before analysis: it did not parse in
// its format, or, with Invalid set, it parsed into a circuit that fails
// Validate (only a technology-mapped BLIF netlist can). Its text is Err's.
type ReadError struct {
	Invalid bool
	Err     error
}

// Error returns Err's text.
func (e *ReadError) Error() string { return e.Err.Error() }

// Unwrap returns Err.
func (e *ReadError) Unwrap() error { return e.Err }

// Analyze reads data in format — "bench", "blif" or "v"/"verilog", in any
// case — sweeps dead logic and analyses the result with the default
// library and options. ctx cancels the analysis (core.AnalyzeCtx). A
// netlist refused before analysis fails with a *ReadError.
func Analyze(ctx context.Context, format string, data []byte) (*core.Analysis, error) {
	c, err := Swept(format, data)
	if err != nil {
		return nil, err
	}
	return AnalyzeSwept(ctx, c)
}

// AnalyzeSwept is Analyze's second half: it analyses a circuit Swept
// returned with the default library and options.
func AnalyzeSwept(ctx context.Context, c *circuit.Circuit) (*core.Analysis, error) {
	return core.AnalyzeCtx(ctx, c, core.DefaultOptions(cell.Default()))
}

// Swept reads data in format into the swept circuit Analyze analyses:
// the format's reader, then Sweep. Its Validate and TopoOrder memos are
// set. It fails with a *ReadError.
func Swept(format string, data []byte) (*circuit.Circuit, error) {
	c, err := Parse(format, data)
	if err != nil {
		return nil, &ReadError{Err: err}
	}
	// The .bench and Verilog readers make every Validate check and set its
	// memo; a technology-mapped BLIF netlist is checked here.
	if err := c.Validate(); err != nil {
		return nil, &ReadError{Invalid: true, Err: err}
	}
	c, _ = c.Sweep()
	return c, nil
}

// Parse decodes data in format into a circuit, unswept. BLIF input is
// technology-mapped onto the default library.
func Parse(format string, data []byte) (*circuit.Circuit, error) {
	switch strings.ToLower(format) {
	case "bench":
		return benchfmt.Parse(bytes.NewReader(data))
	case "blif":
		n, err := blif.Parse(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return techmap.Map(n, techmap.DefaultOptions(cell.Default()))
	case "v", "verilog":
		return verilog.Parse(bytes.NewReader(data))
	default:
		return nil, fmt.Errorf("unknown netlist format %q (want bench, blif or v)", format)
	}
}

// Stage reads a suspect netlist for a trace. A .bench or Verilog netlist
// is staged (benchfmt.Stage, verilog.Stage): accepted and refused exactly
// as Parse would, with the same error, but no circuit is built. Other
// formats go through Parse; a BLIF netlist is technology-mapped into a
// circuit.
func Stage(format string, data []byte) (circuit.Netlist, error) {
	switch strings.ToLower(format) {
	case "bench":
		return benchfmt.Stage(bytes.NewReader(data))
	case "v", "verilog":
		return verilog.Stage(bytes.NewReader(data))
	}
	return Parse(format, data)
}

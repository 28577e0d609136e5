package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FormatOf resolves the format of a trace input: format itself when
// set, otherwise the file extension's — .csv is csv, .ftrace and
// .trace are ftrace, .vcd is vcd — and events for anything else,
// stdin ("-") included.
func FormatOf(path, format string) string {
	if format != "" {
		return format
	}
	switch filepath.Ext(path) {
	case ".csv":
		return "csv"
	case ".ftrace", ".trace":
		return "ftrace"
	case ".vcd":
		return "vcd"
	default:
		return "events"
	}
}

// Open opens a trace input as a streaming Source: the named file, or
// stdin for "-", in the format FormatOf resolves. task selects the
// ftrace thread (empty keeps every event) and signals the VCD signals
// (empty watches all); other formats ignore them.
//
// A file is mapped (OpenBytes), so the decoders run zero-copy over the
// page cache. With follow set the input is instead read through a
// FollowReader, which polls across EOF: the mode for a file another
// process is still writing. The returned function releases the input;
// call it once the source is done. On error nothing is left open.
func Open(path, format, task string, signals []string, follow *FollowOptions) (Source, func(), error) {
	var r io.Reader = os.Stdin
	release := func() {}
	switch {
	case follow != nil:
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			r, release = f, func() { f.Close() }
		}
		r = NewFollowReader(r, *follow)
	case path != "-":
		b, err := OpenBytes(path)
		if err != nil {
			return nil, nil, err
		}
		r, release = b, func() { b.Close() }
	}
	src, err := decoder(r, FormatOf(path, format), task, signals)
	if err != nil {
		release()
		return nil, nil, err
	}
	return src, release, nil
}

// decoder returns the streaming decoder of format over r.
func decoder(r io.Reader, format, task string, signals []string) (Source, error) {
	switch format {
	case "csv":
		src, err := NewCSVSource(r)
		if err != nil {
			return nil, err
		}
		return src, nil
	case "events":
		return NewEventsSource(r), nil
	case "ftrace":
		return NewFtraceSource(r, task, nil), nil
	case "vcd":
		src, err := NewVCDSource(r, signals)
		if err != nil {
			return nil, err
		}
		return src, nil
	default:
		return nil, fmt.Errorf("unknown input format %q", format)
	}
}

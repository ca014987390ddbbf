package workload

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/simtime"
)

// The TSV trace format matches the artifact's dataset files: a header line
// followed by one request per line with input token count, output token
// count, and arrival time in milliseconds. Multi-class traces carry a
// fourth "class" column naming each request's traffic class, and traces
// with shared-prefix traffic a fifth "prefix_toks" column; traces
// without classes keep the artifact's exact three-column format.
const (
	tsvHeader       = "input_toks\toutput_toks\tarrival_time_ms"
	tsvClassHeader  = tsvHeader + "\tclass"
	tsvPrefixHeader = tsvClassHeader + "\tprefix_toks"
)

// WriteTSV writes a trace in the artifact's TSV format. The class column
// is emitted only when at least one request carries a class name, and
// the prefix_toks column only when at least one request carries a shared
// prefix, so single-class traces stay byte-compatible with the artifact
// files and pre-prefix traces with older readers.
func WriteTSV(w io.Writer, reqs []Request) error {
	classes, prefixes := false, false
	for _, r := range reqs {
		if r.Class != "" {
			classes = true
		}
		if r.PrefixLen > 0 {
			prefixes = true
		}
	}
	bw := bufio.NewWriter(w)
	header := tsvHeader
	switch {
	case prefixes:
		classes = true // the prefix column position implies the class column
		header = tsvPrefixHeader
	case classes:
		header = tsvClassHeader
	}
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return fmt.Errorf("workload: writing trace: %w", err)
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return err
		}
		ms := simtime.Duration(r.Arrival).Milliseconds()
		var err error
		switch {
		case prefixes:
			_, err = fmt.Fprintf(bw, "%d\t%d\t%.3f\t%s\t%d\n", r.InputLen, r.OutputLen, ms, r.Class, r.PrefixLen)
		case classes:
			_, err = fmt.Fprintf(bw, "%d\t%d\t%.3f\t%s\n", r.InputLen, r.OutputLen, ms, r.Class)
		default:
			_, err = fmt.Fprintf(bw, "%d\t%d\t%.3f\n", r.InputLen, r.OutputLen, ms)
		}
		if err != nil {
			return fmt.Errorf("workload: writing trace: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTSV parses a trace in the artifact's TSV format. A header line is
// optional. IDs are assigned in file order.
func ReadTSV(r io.Reader) ([]Request, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var reqs []Request
	lineNo := 0
	sawContent := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, replayMagic) {
			return nil, fmt.Errorf("workload: line %d: this is a versioned replay trace (%s header); read it with ParseReplayTrace / -replay, not the legacy TSV loader", lineNo, replayMagic)
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if !sawContent && looksLikeHeader(fields) {
			sawContent = true
			continue
		}
		sawContent = true
		if len(fields) < 3 {
			return nil, fmt.Errorf("workload: line %d: want 3 tab-separated fields, got %d", lineNo, len(fields))
		}
		in, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: input tokens: %w", lineNo, err)
		}
		out, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: output tokens: %w", lineNo, err)
		}
		ms, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: arrival time: %w", lineNo, err)
		}
		arrival, err := scaled("arrival_time_ms", ms, simtime.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		class := ""
		if len(fields) > 3 {
			class = strings.TrimSpace(fields[3])
		}
		prefix := 0
		if len(fields) > 4 {
			prefix, err = strconv.Atoi(strings.TrimSpace(fields[4]))
			if err != nil {
				return nil, fmt.Errorf("workload: line %d: prefix tokens: %w", lineNo, err)
			}
		}
		req := Request{
			ID:        len(reqs),
			InputLen:  in,
			OutputLen: out,
			Arrival:   simtime.Time(arrival),
			Class:     class,
			PrefixLen: prefix,
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", lineNo, err)
		}
		reqs = append(reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	return reqs, nil
}

func looksLikeHeader(fields []string) bool {
	if len(fields) == 0 {
		return false
	}
	_, err := strconv.Atoi(strings.TrimSpace(fields[0]))
	return err != nil
}

// LoadTSVFile reads a trace file from disk.
func LoadTSVFile(path string) ([]Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	return ReadTSV(f)
}

// SaveTSVFile writes a trace file to disk.
func SaveTSVFile(path string, reqs []Request) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := WriteTSV(f, reqs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

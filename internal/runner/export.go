package runner

// Result export: every sweep driver serializes its merged aggregates
// through these two writers so CSV and JSON outputs stay uniform across
// the CLIs (cmd/sweep, cmd/rxlsim).

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteJSON writes v as indented JSON followed by a newline.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteCSV writes a header row followed by the data rows. Every row must
// have the same width as the header.
func WriteCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("runner: CSV row %d has %d fields, header has %d", i, len(row), len(header))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes header+rows to a file at path (creating or truncating).
func SaveCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, header, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveJSON writes v as indented JSON to a file at path.
func SaveJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

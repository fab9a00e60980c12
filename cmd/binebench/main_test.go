package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestPeakRSS(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name, path, want string
	}{
		{"linux", write("status", "Name:\tbinebench\nVmPeak:\t  900000 kB\nVmHWM:\t  157696 kB\nVmRSS:\t  100000 kB\n"), "154.0 MiB"},
		{"no field", write("nohwm", "Name:\tbinebench\nVmRSS:\t  100000 kB\n"), "n/a"},
		{"odd unit", write("unit", "VmHWM:\t  157696 MB\n"), "n/a"},
		{"missing file", filepath.Join(dir, "absent"), "n/a"},
	} {
		if got := peakRSS(tc.path); got != tc.want {
			t.Errorf("%s: peakRSS = %q, want %q", tc.name, got, tc.want)
		}
	}
}

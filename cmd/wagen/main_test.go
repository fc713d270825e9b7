package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
)

// -swf reads a gzip-compressed trace through its decompressor: the
// gzipped copy of a trace converts to the same workload bytes as the
// trace itself.
func TestSWFGzipMatchesPlain(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "swf", "synthetic-10k.swf"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	plainSWF := filepath.Join(dir, "trace.swf")
	gzSWF := filepath.Join(dir, "trace.swf.gz")
	for path, data := range map[string][]byte{plainSWF: raw, gzSWF: zbuf.Bytes()} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	convert := func(swf string) []byte {
		t.Helper()
		out := swf + ".workload"
		if err := run([]string{"-swf", swf, "-out", out}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	plain, gz := convert(plainSWF), convert(gzSWF)
	if len(plain) == 0 {
		t.Fatal("the plain trace converted to an empty workload")
	}
	if !bytes.Equal(plain, gz) {
		t.Errorf("gzipped trace converted to %d bytes, plain trace to %d; want identical output", len(gz), len(plain))
	}
}

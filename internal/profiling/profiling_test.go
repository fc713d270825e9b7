package profiling

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	cpu, mem := filepath.Join(dir, "run.cpu"), filepath.Join(dir, "run.mem")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Fatalf("%s: %v, %v", path, st, err)
		}
	}
}

func TestStartWithoutFlagsDoesNothing(t *testing.T) {
	stop, err := (&Flags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

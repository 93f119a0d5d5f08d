package lanltrace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the pseudo-application golden files under testdata/ instead of comparing")

// TestPseudoAppGolden pins GeneratePseudoApp's output for every registered
// workload under both tracing modes: 4 ranks on cluster.Small, 64 KiB
// blocks, 256 KiB per rank. In ltrace mode the raw traces interleave
// MPI_File_* records with their nested SYS_* records, so these files also
// pin that the syscall-level replay counts each I/O once.
func TestPseudoAppGolden(t *testing.T) {
	modes := []struct {
		name string
		cfg  func() Config
	}{{"strace", StraceConfig}, {"ltrace", DefaultConfig}}
	for _, w := range workload.All() {
		spec := w.Spec(workload.WeakScale(64<<10, 256<<10))
		for _, m := range modes {
			t.Run(w.Name()+"/"+m.name, func(t *testing.T) {
				c := testCluster(false)
				rep := New(m.cfg()).Run(c.World, spec.CommandLine, func(p *sim.Proc, r *mpi.Rank) {
					spec.Program(p, r, nil)
				})
				tr, err := GeneratePseudoApp(rawTraces(rep), 0)
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := tr.WriteText(&got); err != nil {
					t.Fatal(err)
				}
				name := strings.ToLower(strings.ReplaceAll(w.Name(), " ", "-"))
				path := filepath.Join("testdata", "pseudoapp_"+name+"_"+m.name+".txt")
				if *update {
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("pseudo-app trace differs from %s", path)
				}
			})
		}
	}
}

package cliflags_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHelpUnchanged builds the three binaries that register their shared
// flags through this package and pins each one's -h output
// (testdata/<binary>.help): a flag's name, default or help text moves only
// with its golden.
func TestHelpUnchanged(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"caplive", "capsim", "capsysctl"} {
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(dir, name)
			if out, err := exec.Command("go", "build", "-o", bin, "capsys/cmd/"+name).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 after printing to stderr
			_, got, _ := strings.Cut(string(out), "\n")        // drop "Usage of <path>:"
			want, err := os.ReadFile(filepath.Join("testdata", name+".help"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s -h drifted:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite "+digestPath+" from the rendered artifacts")

// digestPath pins the SHA-256 of every artifact `repro -exp all`
// writes. Its first line is the engine.Version the digests were taken
// at; "# reason: ..." lines after it explain a digest change made
// without a version bump; each remaining line is "<sha256>  <file>".
const digestPath = "testdata/artifacts.sha256"

const reasonPrefix = "# reason: "

type digests struct {
	version string
	reasons []string
	sums    map[string]string // file name -> hex SHA-256
}

func parseDigests(text string) (digests, error) {
	d := digests{sums: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case n == 1:
			d.version = line
		case strings.HasPrefix(line, reasonPrefix):
			d.reasons = append(d.reasons, strings.TrimPrefix(line, reasonPrefix))
		default:
			sum, name, ok := strings.Cut(line, "  ")
			if !ok || len(sum) != 2*sha256.Size || name == "" {
				return digests{}, fmt.Errorf("line %d: want \"<sha256>  <file>\", got %q", n, line)
			}
			d.sums[name] = sum
		}
	}
	if d.version == "" {
		return digests{}, fmt.Errorf("no engine version header")
	}
	return d, sc.Err()
}

func (d digests) String() string {
	var b strings.Builder
	b.WriteString(d.version + "\n")
	for _, r := range d.reasons {
		b.WriteString(reasonPrefix + r + "\n")
	}
	for _, name := range slices.Sorted(maps.Keys(d.sums)) {
		fmt.Fprintf(&b, "%s  %s\n", d.sums[name], name)
	}
	return b.String()
}

// changedArtifacts names every artifact whose digest differs between
// want and got, including ones present on only one side, sorted.
func changedArtifacts(want, got map[string]string) []string {
	var changed []string
	for name, sum := range got { //daelint:nondeterministic-ok the names are sorted before use
		if want[name] != sum {
			changed = append(changed, name)
		}
	}
	for name := range want { //daelint:nondeterministic-ok the names are sorted before use
		if _, ok := got[name]; !ok {
			changed = append(changed, name)
		}
	}
	slices.Sort(changed)
	return changed
}

// updatedDigests is what -update writes: got under the running engine
// version. Digests may change freely across a version bump, which drops
// the old reasons. Under the same version they may change only when the
// old header carries a reason line, which is kept.
func updatedDigests(old digests, got map[string]string, version string) (digests, error) {
	next := digests{version: version, sums: got}
	if old.version != version {
		return next, nil
	}
	if changed := changedArtifacts(old.sums, got); len(changed) > 0 && len(old.reasons) == 0 {
		return digests{}, fmt.Errorf("%s changed under %s without a version bump; bump engine.Version, or add a %q line under the header of %s",
			strings.Join(changed, ", "), version, reasonPrefix+"...", digestPath)
	}
	next.reasons = old.reasons
	return next, nil
}

// artifactDigests hashes each written file, keyed by base name.
func artifactDigests(t *testing.T, files []string) map[string]string {
	t.Helper()
	sums := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		sums[filepath.Base(f)] = hex.EncodeToString(sum[:])
	}
	return sums
}

func TestUpdatedDigestsNeedBumpOrReason(t *testing.T) {
	sum := func(c string) string { return strings.Repeat(c, 2*sha256.Size) }
	old := digests{version: "engine-v3", sums: map[string]string{"a.txt": sum("1"), "b.txt": sum("2")}}
	same := map[string]string{"a.txt": sum("1"), "b.txt": sum("2")}
	moved := map[string]string{"a.txt": sum("1"), "b.txt": sum("3"), "c.txt": sum("4")}

	if _, err := updatedDigests(old, same, "engine-v3"); err != nil {
		t.Errorf("unchanged digests refused: %v", err)
	}
	_, err := updatedDigests(old, moved, "engine-v3")
	if err == nil || !strings.Contains(err.Error(), "b.txt, c.txt") {
		t.Errorf("a change without a bump or reason must fail naming b.txt and c.txt, got %v", err)
	}
	bumped, err := updatedDigests(digests{version: "engine-v3", reasons: []string{"old"}, sums: old.sums}, moved, "engine-v4")
	if err != nil || bumped.version != "engine-v4" || len(bumped.reasons) != 0 {
		t.Errorf("a version bump should rewrite freely and drop old reasons: %+v, %v", bumped, err)
	}
	old.reasons = []string{"search now returns the first crossing"}
	kept, err := updatedDigests(old, moved, "engine-v3")
	if err != nil || !slices.Equal(kept.reasons, old.reasons) {
		t.Errorf("a change with a reason line should pass and keep it: %+v, %v", kept, err)
	}

	round, err := parseDigests(kept.String())
	if err != nil || round.version != "engine-v3" || !slices.Equal(round.reasons, old.reasons) || !maps.Equal(round.sums, moved) {
		t.Errorf("digest file does not round-trip: %+v, %v", round, err)
	}
	if _, err := parseDigests("engine-v3\nnot a digest line\n"); err == nil {
		t.Error("a malformed digest line was accepted")
	}
}

package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDeterminismFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "det")
	runFixture(t, w, []*Analyzer{NewDeterminism(DeterminismConfig{Paths: []string{"det"}})})
}

func TestHotpathFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "hot")
	runFixture(t, w, []*Analyzer{NewHotpath()})
}

// fixtureSchemaConfig mirrors DefaultSchemaConfig over the fixture tree.
var fixtureSchemaConfig = SchemaConfig{
	ParamsPkg: "schema/machine", ParamsType: "Params", CacheKeyFunc: "CacheKey",
	WirePkg: "schema/wire", WireType: "Params", WireTo: "ToParams", WireFrom: "Machine",
	ResultPkg:   "schema/result",
	ResultTypes: []string{"Result", "CoreStats"},
	CloneFunc:   "Clone",
	OracleFunc:  "resultsEqual",
	OpPkg:       "schema/machine", OpType: "Op",
	FingerprintPkg: "schema/machine", FingerprintFunc: "Fingerprint",
}

func TestSchemaGuardFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "schema/machine", "schema/wire", "schema/result")
	runFixture(t, w, []*Analyzer{NewSchemaGuard(fixtureSchemaConfig)})
}

func TestLockguardFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "lock")
	runFixture(t, w, []*Analyzer{NewLockguard(LockguardConfig{Paths: []string{"lock"}})})
}

func TestCtxflowFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "ctxf")
	runFixture(t, w, []*Analyzer{NewCtxflow(CtxflowConfig{Paths: []string{"ctxf"}})})
}

func TestErrclassFixture(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "errc")
	runFixture(t, w, []*Analyzer{NewErrclass(ErrclassConfig{
		Paths:    []string{"errc"},
		Boundary: [][2]string{{"errc", "Client"}},
	})})
}

// TestDirectiveEdgeCases pins the directive-grammar corners: a duplicate
// //daelint:guardedby, a guardedby naming a mutex that does not exist,
// and a reasonless suppression — which is malformed AND leaves the
// underlying finding unsuppressed.
func TestDirectiveEdgeCases(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "dirs")
	diags := RunAnalyzers(w, []*Analyzer{NewLockguard(LockguardConfig{Paths: []string{"dirs"}})})
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	wantSubstrs := []string{
		"lockguard: duplicate //daelint:guardedby on field dup",
		"lockguard: //daelint:guardedby missing on field bad: missing names no sibling sync.Mutex/RWMutex field of T",
		"directive: //daelint:lockguard-ok needs a reason",
		"lockguard: read of T.n outside mu.Lock/Unlock span",
	}
	if len(got) != len(wantSubstrs) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(wantSubstrs), strings.Join(got, "\n"))
	}
	for _, want := range wantSubstrs {
		found := false
		for _, g := range got {
			if strings.Contains(g, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q; got:\n%s", want, strings.Join(got, "\n"))
		}
	}
}

func TestMalformedDirectives(t *testing.T) {
	w := loadFixture(t, filepath.Join("testdata", "src"), "badly")
	mal := w.Pkg("badly").Directives.Malformed
	if len(mal) != 2 {
		t.Fatalf("got %d malformed directives, want 2: %v", len(mal), mal)
	}
	if !strings.Contains(mal[0].Message, "unknown directive //daelint:nondeterministc-ok") {
		t.Errorf("first malformed = %q, want unknown-directive complaint", mal[0].Message)
	}
	if !strings.Contains(mal[1].Message, "//daelint:hotpath-ok needs a reason") {
		t.Errorf("second malformed = %q, want missing-reason complaint", mal[1].Message)
	}
	// Malformed directives surface as findings of the "directive" analyzer.
	diags := RunAnalyzers(w, nil)
	if len(diags) != 2 {
		t.Fatalf("RunAnalyzers returned %d findings, want the 2 malformed directives: %v", len(diags), diags)
	}
}

// fixtureVersionKeyConfig mirrors DefaultVersionKeyConfig over the
// fixture tree rooted at a (possibly temp-copied) directory.
var fixtureVersionKeyConfig = VersionKeyConfig{
	EnginePkg:         "version/engine",
	VersionConst:      "Version",
	VersionPattern:    `^engine-v\d+$`,
	Roots:             []string{"(Sim).Run"},
	Structs:           [][2]string{{"version/engine", "Config"}},
	ConstPkgs:         []string{"version/engine"},
	LockFile:          "semantics.lock",
	RequireVersionUse: []string{"version/store"},
}

func TestVersionKeyLifecycle(t *testing.T) {
	tmp := t.TempDir()
	copyFixtureTree(t, filepath.Join("testdata", "src", "version"), filepath.Join(tmp, "version"))
	cfg := fixtureVersionKeyConfig

	run := func() []Diagnostic {
		w := loadFixture(t, tmp, "version/engine", "version/store")
		return RunAnalyzers(w, []*Analyzer{NewVersionKey(cfg)})
	}
	wantOne := func(stage, substr string) {
		t.Helper()
		diags := run()
		if len(diags) != 1 || !strings.Contains(diags[0].Message, substr) {
			t.Fatalf("%s: got %v, want one finding containing %q", stage, diags, substr)
		}
	}
	wantClean := func(stage string) {
		t.Helper()
		if diags := run(); len(diags) != 0 {
			t.Fatalf("%s: got %v, want no findings", stage, diags)
		}
	}
	edit := func(old, new string) {
		t.Helper()
		path := filepath.Join(tmp, "version", "engine", "engine.go")
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), old) {
			t.Fatalf("edit: %q not found in fixture", old)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), old, new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeLock := func() {
		t.Helper()
		w := loadFixture(t, tmp, "version/engine", "version/store")
		if _, err := WriteSemanticsLock(w, cfg); err != nil {
			t.Fatal(err)
		}
	}

	// No lock yet: the analyzer demands one.
	wantOne("missing lock", "semantics lock semantics.lock missing")

	// Generating the lock pins the surface.
	writeLock()
	wantClean("fresh lock")

	// A package that must fold the version into its keys but doesn't.
	cfg.RequireVersionUse = []string{"version/engine"}
	wantOne("version use", "package version/engine never references engine.Version")
	cfg.RequireVersionUse = fixtureVersionKeyConfig.RequireVersionUse

	// A version string off the canonical shape.
	cfg.VersionPattern = `^sim-v\d+$`
	wantOne("version pattern", "does not match")
	cfg.VersionPattern = fixtureVersionKeyConfig.VersionPattern

	// Editing a reachable function's body trips the ratchet even though
	// its signature is unchanged.
	edit("return w + 1", "return w + 2")
	wantOne("body edit", `func version/engine.(Sim).step (changed)`)

	// Regenerating the lock (the reviewable way to accept the change)
	// settles it again.
	writeLock()
	wantClean("regenerated lock")

	// Bumping the version without regenerating the lock is also a finding.
	edit(`Version = "engine-v1"`, `Version = "engine-v2"`)
	wantOne("version bump", `records "engine-v1"`)
}

// TestRepoIsClean is the self-hosting gate: the seven production
// analyzers over the whole module must report nothing, in both the
// plain and the -tests configuration.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	w, err := Load("../..", []string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*Analyzer{
		NewDeterminism(DeterminismConfig{Paths: DefaultDeterminismPaths}),
		NewSchemaGuard(DefaultSchemaConfig),
		NewHotpath(),
		NewVersionKey(DefaultVersionKeyConfig),
		NewLockguard(LockguardConfig{Paths: DefaultConcurrencyPaths}),
		NewCtxflow(CtxflowConfig{Paths: DefaultConcurrencyPaths}),
		NewErrclass(DefaultErrclassConfig),
	}
	for _, includeTests := range []bool{false, true} {
		w.IncludeTests = includeTests
		for _, d := range RunAnalyzers(w, analyzers) {
			t.Errorf("IncludeTests=%v: %s", includeTests, d)
		}
	}
}

// TestForEachIsConcurrentCallback pins DESIGN.md §12's claim that the
// one worker pool, sweep.ForEach, carries //daelint:concurrent-callback:
// without it the determinism analyzer would not audit the func literals
// handed to the pool, and completion-order aggregation in a callback
// would pass the gate silently.
func TestForEachIsConcurrentCallback(t *testing.T) {
	w, err := Load("../..", []string{"./internal/sweep"}, false)
	if err != nil {
		t.Fatal(err)
	}
	pkg := w.Pkg("daesim/internal/sweep")
	if pkg == nil {
		t.Fatal("daesim/internal/sweep not loaded")
	}
	fn, _ := pkg.Types.Scope().Lookup("ForEach").(*types.Func)
	if fn == nil {
		t.Fatal("sweep.ForEach not found")
	}
	if !concurrentCallbackIndex(w)[funcKey(fn)] {
		t.Errorf("%s is missing from the concurrent-callback index; annotate it //daelint:concurrent-callback", funcKey(fn))
	}
}

// Package docscheck is the documentation drift gate: a test-only package
// asserting that the normative documents under docs/ keep up with the
// code. It checks that every relative markdown link in docs/ and the
// README resolves and every repository path they back-quote exists, that
// every /metricsz field the server emits and every CLI flag dynctrld and
// loadgen declare is documented in docs/OPERATIONS.md, that the live
// /metricsz exposition declares # HELP and # TYPE for every family it
// renders and renders every family OPERATIONS.md names, and that every
// wire frame type and error code is documented in docs/PROTOCOL.md, and
// that every log event OPERATIONS.md §8.1 names is still logged. CI runs it
// as the docs job, so adding a metric or a wire code without documenting it
// fails the build.
package docscheck

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dynctrl/internal/server"
	"dynctrl/internal/workload"
)

// repoRoot is the module root relative to this package directory.
const repoRoot = "../.."

func readFile(t *testing.T, rel string) string {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(repoRoot, rel))
	if err != nil {
		t.Fatalf("read %s: %v", rel, err)
	}
	return string(buf)
}

// markdownFiles lists every document the link check covers.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	matches, err := filepath.Glob(filepath.Join(repoRoot, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		rel, err := filepath.Rel(repoRoot, m)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, rel)
	}
	if len(files) < 3 {
		t.Fatalf("expected README plus at least two docs/ pages, found %v", files)
	}
	return files
}

// mdLink matches inline markdown links [text](target). Reference-style
// links are not used in this repo.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// A back-quoted span names a repository path when it leads with one of the
// source directories (what follows the path, such as a flag, is ignored)
// or is a capitalised root document such as `BENCHMARK.json`.
var (
	codeFence = regexp.MustCompile("(?s)```.*?```")
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	repoPath  = regexp.MustCompile(`^(?:cmd|internal|bench|docs|examples)/[A-Za-z0-9_./-]*`)
	rootFile  = regexp.MustCompile(`^[A-Z][A-Za-z_]*\.(?:json|md)$`)
	// goSymbol is the `.Name` tail of a span like `internal/oracle.CheckX`.
	goSymbol = regexp.MustCompile(`(?:\.[A-Z]\w*)+$`)
)

// leftBehind reports whether gitignore (the root .gitignore) declares the
// root-level name as something building or running the repository leaves
// behind, which the documents may name although no checkout holds it.
func leftBehind(gitignore, name string) bool {
	for _, line := range strings.Split(gitignore, "\n") {
		pattern, ok := strings.CutPrefix(line, "/")
		if !ok {
			continue
		}
		if hit, err := filepath.Match(pattern, name); err == nil && hit {
			return true
		}
	}
	return false
}

// TestMarkdownLinksResolve verifies every relative link in the covered
// documents points at a file that exists (anchors and external URLs are
// skipped — there is no network in the test environment), and that every
// repository path they name in back quotes exists, so deleting a command
// or a package without its prose fails here.
func TestMarkdownLinksResolve(t *testing.T) {
	gitignore := readFile(t, ".gitignore")
	for _, file := range markdownFiles(t) {
		body := readFile(t, file)
		for _, m := range mdLink.FindAllStringSubmatch(body, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(repoRoot, filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", file, m[1], err)
			}
		}
		paths := 0
		for _, m := range codeSpan.FindAllStringSubmatch(codeFence.ReplaceAllString(body, ""), -1) {
			span := m[1]
			rel := repoPath.FindString(span)
			switch {
			case rel != "":
				// `internal/...` and `internal/*` name the directory.
				rel = goSymbol.ReplaceAllString(strings.TrimSuffix(rel, "..."), "")
			case rootFile.MatchString(span) && !leftBehind(gitignore, span):
				rel = span
			default:
				continue
			}
			paths++
			if _, err := os.Stat(filepath.Join(repoRoot, rel)); err != nil {
				t.Errorf("%s: `%s` names a path that does not exist (%v)", file, span, err)
			}
		}
		if file == "README.md" && paths < 30 {
			t.Fatalf("README.md: only %d back-quoted repository paths found, the span regexps are likely stale", paths)
		}
	}
}

// TestMetricsFieldsDocumented extracts every dynctrld_* metric name the
// server's /metricsz writer emits and requires docs/OPERATIONS.md to
// document each one.
func TestMetricsFieldsDocumented(t *testing.T) {
	src := readFile(t, filepath.Join("internal", "server", "metrics.go"))
	doc := readFile(t, filepath.Join("docs", "OPERATIONS.md"))

	names := regexp.MustCompile(`dynctrld_[a-z_]+`).FindAllString(src, -1)
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("metric %s is emitted by internal/server but not documented in docs/OPERATIONS.md", name)
		}
	}
	if len(seen) < 20 {
		t.Fatalf("extracted only %d metric names from internal/server/metrics.go — the extractor regex is likely stale", len(seen))
	}
}

// TestMetricsExposition renders a live /metricsz document from a
// durable two-tenant server — the configuration that emits every metric
// family — and fails if any rendered sample lacks a preceding # HELP or
// # TYPE declaration, if a family's samples are not contiguous, or if a
// rendered family is missing from docs/OPERATIONS.md, or if a family
// that document back-quotes is not rendered. Unlike the source-regex check
// above, this catches exposition-format drift, not just missing names.
func TestMetricsExposition(t *testing.T) {
	doc := readFile(t, filepath.Join("docs", "OPERATIONS.md"))
	srv, err := server.New(server.Config{
		Addr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{
			{Name: "default", Topology: workload.TopologySpec{Kind: "balanced", Nodes: 8}, Seed: 1, M: 100, W: 10},
			{Name: "blue", Topology: workload.TopologySpec{Kind: "star", Nodes: 4}, Seed: 2, M: 50, W: 5},
		},
		WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("server.Start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	var buf bytes.Buffer
	srv.WriteMetrics(&buf)

	helped := map[string]bool{}
	typed := map[string]bool{}
	seen := map[string]bool{}
	last := ""
	for ln, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.SplitN(rest, " ", 2)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			typed[strings.SplitN(rest, " ", 2)[0]] = true
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		// Summary families render base{quantile=...}, _sum and _count
		// samples under the base family's declarations.
		fam := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !helped[fam] {
			t.Errorf("exposition line %d: sample %q has no preceding # HELP", ln+1, name)
		}
		if !typed[fam] {
			t.Errorf("exposition line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		if fam != last && seen[fam] {
			t.Errorf("exposition line %d: family %q samples are not contiguous", ln+1, fam)
		}
		seen[fam] = true
		last = fam
		if !strings.Contains(doc, "`"+fam+"`") {
			t.Errorf("family %q is rendered on /metricsz but not documented in docs/OPERATIONS.md", fam)
		}
	}
	if len(seen) < 30 {
		t.Fatalf("rendered only %d metric families — the durable two-tenant config should emit every family", len(seen))
	}
	// And the other way round: a family the document names must still be
	// rendered, so deleting one without its prose fails here.
	for _, m := range regexp.MustCompile("`(dynctrld_[a-z_]+)`").FindAllStringSubmatch(doc, -1) {
		if !seen[m[1]] {
			t.Errorf("docs/OPERATIONS.md documents family %q, which the durable two-tenant server does not render", m[1])
		}
	}
}

// TestCommandFlagsDocumented extracts every CLI flag declared by
// cmd/dynctrld and cmd/loadgen and requires docs/OPERATIONS.md to
// document each one as `-name` — and, the other way round, requires
// every flag a reference-table row of OPERATIONS.md leads with to still
// be declared by one of the two commands, so removing a flag without
// removing its row fails just like adding one without a row.
func TestCommandFlagsDocumented(t *testing.T) {
	doc := readFile(t, filepath.Join("docs", "OPERATIONS.md"))
	flagDecl := regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Float64|Duration)\("([a-z-]+)"`)
	flagVar := regexp.MustCompile(`flag\.Var\([^,]+, "([a-z-]+)"`)
	declared := map[string]bool{}
	for _, cmd := range []string{"dynctrld", "loadgen"} {
		src := readFile(t, filepath.Join("cmd", cmd, "main.go"))
		names := flagDecl.FindAllStringSubmatch(src, -1)
		names = append(names, flagVar.FindAllStringSubmatch(src, -1)...)
		if len(names) < 10 {
			t.Fatalf("extracted only %d flags from cmd/%s/main.go — the extractor regex is likely stale", len(names), cmd)
		}
		for _, m := range names {
			declared[m[1]] = true
			if !strings.Contains(doc, "`-"+m[1]+"`") {
				t.Errorf("cmd/%s flag -%s is not documented in docs/OPERATIONS.md", cmd, m[1])
			}
		}
	}

	// Flag-table rows lead with the flag (or a comma-separated group).
	flagRow := regexp.MustCompile("(?m)^\\| ((?:`-[a-z-]+`(?:, )?)+) \\|")
	flagName := regexp.MustCompile("`-([a-z-]+)`")
	rows := flagRow.FindAllStringSubmatch(doc, -1)
	if len(rows) < 20 {
		t.Fatalf("extracted only %d flag-table rows from docs/OPERATIONS.md — the row regex is likely stale", len(rows))
	}
	for _, row := range rows {
		for _, m := range flagName.FindAllStringSubmatch(row[1], -1) {
			if !declared[m[1]] {
				t.Errorf("docs/OPERATIONS.md documents flag -%s, which neither cmd/dynctrld nor cmd/loadgen declares", m[1])
			}
		}
	}
}

// TestWireConstantsDocumented extracts every frame type and error code
// declared by internal/wire and requires docs/PROTOCOL.md to document
// the name and its numeric value.
func TestWireConstantsDocumented(t *testing.T) {
	src := readFile(t, filepath.Join("internal", "wire", "wire.go"))
	doc := readFile(t, filepath.Join("docs", "PROTOCOL.md"))

	frame := regexp.MustCompile(`(?m)^\tFrame([A-Za-z]+) FrameType = (\d+)`)
	frames := frame.FindAllStringSubmatch(src, -1)
	if len(frames) < 6 {
		t.Fatalf("extracted only %d frame types from internal/wire/wire.go — the extractor regex is likely stale", len(frames))
	}
	for _, m := range frames {
		name, value := m[1], m[2]
		if !strings.Contains(doc, name) {
			t.Errorf("frame type Frame%s is declared by internal/wire but not documented in docs/PROTOCOL.md", name)
		}
		// The frame tables lead each row with the numeric type.
		if !strings.Contains(doc, fmt.Sprintf("| %s ", value)) {
			t.Errorf("frame type Frame%s = %s: value %s does not appear as a table row in docs/PROTOCOL.md", name, value, value)
		}
	}

	code := regexp.MustCompile(`(?m)^\t(Code[A-Za-z]+) uint8 = (\d+)`)
	codes := code.FindAllStringSubmatch(src, -1)
	if len(codes) < 8 {
		t.Fatalf("extracted only %d error codes from internal/wire/wire.go — the extractor regex is likely stale", len(codes))
	}
	for _, m := range codes {
		name, value := m[1], m[2]
		if !strings.Contains(doc, name) {
			t.Errorf("error code %s is declared by internal/wire but not documented in docs/PROTOCOL.md", name)
		}
		if !strings.Contains(doc, fmt.Sprintf("| %s ", value)) {
			t.Errorf("error code %s = %s: value %s does not appear as a table row in docs/PROTOCOL.md", name, value, value)
		}
	}

	// The protocol version the document claims must match the code.
	version := regexp.MustCompile(`(?m)^const Version = (\d+)`).FindStringSubmatch(src)
	if version == nil {
		t.Fatal("could not extract wire.Version from internal/wire/wire.go")
	}
	if want := fmt.Sprintf("protocol version is **%s**", version[1]); !strings.Contains(doc, want) {
		t.Errorf("docs/PROTOCOL.md does not state %q (wire.Version = %s)", want, version[1])
	}
}

// TestLogEventsExist requires every event docs/OPERATIONS.md §8.1 names to
// be logged: each back-quoted phrase of that section that holds a space
// (whitespace normalised, flags such as `-log-format json` skipped) must be
// a message some non-test Go file passes to .Debug, .Info, .Warn or .Error,
// so deleting a log call without its prose fails here.
func TestLogEventsExist(t *testing.T) {
	doc := readFile(t, filepath.Join("docs", "OPERATIONS.md"))
	start := strings.Index(doc, "### 8.1 ")
	if start < 0 {
		t.Fatal("docs/OPERATIONS.md has no §8.1 heading")
	}
	section := doc[start+len("### 8.1 "):]
	if end := regexp.MustCompile(`(?m)^#{1,3} `).FindStringIndex(section); end != nil {
		section = section[:end[0]]
	}

	logCall := regexp.MustCompile(`\.(?:Debug|Info|Warn|Error)\(\s*"([^"]+)"`)
	logged := map[string]bool{}
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != repoRoot && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range logCall.FindAllSubmatch(src, -1) {
			logged[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	events := 0
	for _, m := range codeSpan.FindAllStringSubmatch(section, -1) {
		event := strings.Join(strings.Fields(m[1]), " ")
		if !strings.Contains(event, " ") || strings.HasPrefix(event, "-") {
			continue
		}
		events++
		if !logged[event] {
			t.Errorf("docs/OPERATIONS.md §8.1 documents log event %q, which no Go file logs", event)
		}
	}
	if events < 10 {
		t.Fatalf("found only %d documented log events in docs/OPERATIONS.md §8.1 — the section or span regexps are likely stale", events)
	}
}

// Package docscheck is the documentation drift gate: a test-only package
// asserting that the normative documents under docs/ keep up with the
// code. It checks that every relative markdown link in docs/ and the
// README resolves and every repository path they back-quote exists, that
// every /metricsz field the server emits is documented in
// docs/OPERATIONS.md and every CLI flag dynctrld and loadgen declare in
// that command's own flag table there, that the live
// /metricsz exposition declares # HELP and # TYPE for every family it
// renders and renders every family OPERATIONS.md names, and that every
// wire frame type and error code is documented in docs/PROTOCOL.md, and
// that every log event OPERATIONS.md §8.1 names is still logged. It also
// holds the documents to byte budgets and README's package map to the
// module's packages, so a second copy of what a package's doc comment
// already says cannot grow back. Its surface ledger pins every package's
// exported names and the daemon's imports in testdata/surface.golden, and
// its caller ledger holds each exported name under internal/ to a non-test
// caller outside its package, the root package's API, or a reason in
// testdata/uncalled.txt. CI runs it as the docs job, so adding a metric or
// a wire code without documenting it fails the build.
package docscheck

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynctrl/internal/server"
	"dynctrl/internal/tree"
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
	// rootSymbol is a name of the root package, as in `dynctrl.Dial`.
	rootSymbol = regexp.MustCompile(`(?:^|[^\w/.-])dynctrl\.([A-Z]\w*)`)
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
// skipped — there is no network in the test environment), that every
// repository path they name in back quotes exists, and that every
// `dynctrl.Name` they write, in a span or a code block, is an exported name
// of the root package, so deleting a command, a package or a public name
// without its prose fails here.
func TestMarkdownLinksResolve(t *testing.T) {
	gitignore := readFile(t, ".gitignore")
	root := modulePackages(t, linuxAMD64())[module]
	public := map[string]bool{}
	for _, name := range exportedNames(t, root) {
		_, name, _ := strings.Cut(name, " ") // a method, T.M, never matches
		public[name] = true
	}
	for _, file := range markdownFiles(t) {
		body := readFile(t, file)
		for _, m := range rootSymbol.FindAllStringSubmatchIndex(body, -1) {
			if name := body[m[2]:m[3]]; !public[name] {
				line := strings.Count(body[:m[2]], "\n") + 1
				t.Errorf("%s:%d: dynctrl.%s is not an exported name of the root package", file, line, name)
			}
		}
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
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{
			{Name: "default", Topology: tree.Shape{Kind: "balanced", Nodes: 8}, Seed: 1, M: 100, W: 10},
			{Name: "blue", Topology: tree.Shape{Kind: "star", Nodes: 4}, Seed: 2, M: 50, W: 5},
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
	resp, err := http.Get("http://" + srv.MetricsAddr() + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricsz: %s, %v", resp.Status, err)
	}

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

// TestCommandFlagsDocumented holds each command's flag table in
// docs/OPERATIONS.md to the flags that command declares: every flag of
// cmd/dynctrld leads a row of §2 and every flag of cmd/loadgen a row of the
// loadgen reference, and every row of each table names a flag of its own
// command. Removing a flag without removing its row fails just like adding
// one without a row, and so does a row left in the other command's table.
func TestCommandFlagsDocumented(t *testing.T) {
	doc := readFile(t, filepath.Join("docs", "OPERATIONS.md"))
	flagDecl := regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Float64|Duration)\("([a-z-]+)"`)
	flagVar := regexp.MustCompile(`flag\.Var\([^,]+, "([a-z-]+)"`)
	// Flag-table rows lead with the flag (or a comma-separated group).
	flagRow := regexp.MustCompile("(?m)^\\| ((?:`-[a-z-]+`(?:, )?)+) \\|")
	flagName := regexp.MustCompile("`-([a-z-]+)`")
	for _, c := range []struct{ cmd, heading string }{
		{"dynctrld", "## 2. Flag reference"},
		{"loadgen", "### cmd/loadgen flag reference"},
	} {
		// The table is what lies between its heading and the next one.
		_, table, ok := strings.Cut(doc, "\n"+c.heading+"\n")
		if !ok {
			t.Fatalf("docs/OPERATIONS.md has no heading %q", c.heading)
		}
		table, _, _ = strings.Cut(table, "\n#")
		rows := map[string]bool{}
		for _, row := range flagRow.FindAllStringSubmatch(table, -1) {
			for _, m := range flagName.FindAllStringSubmatch(row[1], -1) {
				rows[m[1]] = true
			}
		}
		src := readFile(t, filepath.Join("cmd", c.cmd, "main.go"))
		names := flagDecl.FindAllStringSubmatch(src, -1)
		names = append(names, flagVar.FindAllStringSubmatch(src, -1)...)
		if len(names) < 10 || len(rows) < 10 {
			t.Fatalf("extracted %d flags from cmd/%s/main.go and %d from the rows under %q — a regex is likely stale",
				len(names), c.cmd, len(rows), c.heading)
		}
		declared := map[string]bool{}
		for _, m := range names {
			declared[m[1]] = true
			if !rows[m[1]] {
				t.Errorf("cmd/%s flag -%s has no row under %q in docs/OPERATIONS.md", c.cmd, m[1], c.heading)
			}
		}
		for name := range rows {
			if !declared[name] {
				t.Errorf("docs/OPERATIONS.md documents flag -%s under %q, which cmd/%s does not declare", name, c.heading, c.cmd)
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

// TestDocBudgets holds each document to its byte budget: README.md is a map
// and points elsewhere for the rest, and docs/OPERATIONS.md and
// docs/PROTOCOL.md pay for what they take on by removing what they say
// twice. Every CHANGES.md entry from PR 37 on is at most 15 lines and
// 4 KiB; older entries are history and are not held to it.
func TestDocBudgets(t *testing.T) {
	for _, d := range []struct {
		file   string
		budget int
	}{
		{"README.md", 12 << 10},
		{filepath.Join("docs", "OPERATIONS.md"), 33 << 10},
		{filepath.Join("docs", "PROTOCOL.md"), 17 << 10},
	} {
		if n := len(readFile(t, d.file)); n > d.budget {
			t.Errorf("%s is %d B, over its budget of %d B", d.file, n, d.budget)
		}
	}

	// An entry is a line that opens "- PR <n>:" (or "- PR <n> ·") and the
	// lines up to the next such line.
	entryStart := regexp.MustCompile(`^- PR (\d+)[:\s]`)
	var entries []string
	for _, line := range strings.SplitAfter(readFile(t, "CHANGES.md"), "\n") {
		if entryStart.MatchString(line) || len(entries) == 0 {
			entries = append(entries, "")
		}
		entries[len(entries)-1] += line
	}
	if len(entries) < 30 {
		t.Fatalf("found only %d CHANGES.md entries — the entry regexp is likely stale", len(entries))
	}
	for _, e := range entries {
		m := entryStart.FindStringSubmatch(e)
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n < 37 {
			continue
		}
		if lines := strings.Count(strings.TrimRight(e, "\n"), "\n") + 1; lines > 15 || len(e) > 4<<10 {
			t.Errorf("CHANGES.md entry for PR %s is %d lines and %d B, over the budget of 15 lines and 4096 B", m[1], lines, len(e))
		}
	}
}

// TestPackageMapMatchesModule holds README's package map to the module: one
// row for the root package and one for every directory under internal/ that
// holds Go (docscheck's own is test-only), each with a one-sentence
// description of at most 200 B, and no row for anything else. A package
// added or deleted without its row fails here, and so does a row that grows
// back into a second copy of the package's doc comment.
func TestPackageMapMatchesModule(t *testing.T) {
	_, table, ok := strings.Cut(readFile(t, "README.md"), "\n## Package map\n")
	if !ok {
		t.Fatal("README.md has no \"## Package map\" section")
	}
	table, _, _ = strings.Cut(table, "\n## ")

	want := map[string]bool{"dynctrl": true}
	internal := filepath.Join(repoRoot, "internal")
	err := filepath.WalkDir(internal, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(repoRoot, filepath.Dir(path))
			if err != nil {
				return err
			}
			want[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := map[string]int{}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)`[^|]*\\|[^|]*\\| (.*) \\|$")
	for _, m := range row.FindAllStringSubmatch(table, -1) {
		rows[m[1]]++
		if len(m[2]) > 200 {
			t.Errorf("README.md package map: the row for %s is %d B, over 200 B; the package's doc comment is the full description", m[1], len(m[2]))
		}
	}
	if len(want) < 20 || len(rows) < 20 {
		t.Fatalf("found %d packages and %d package-map rows — a regexp or the walk is likely stale", len(want), len(rows))
	}
	for pkg := range want {
		if rows[pkg] != 1 {
			t.Errorf("README.md package map has %d rows for %s, want exactly one", rows[pkg], pkg)
		}
	}
	for pkg := range rows {
		if !want[pkg] {
			t.Errorf("README.md package map has a row for %s, which is not a package of the module", pkg)
		}
	}
}

package filterdir_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// flagDefiners are the methods of flag.FlagSet, and the functions of package
// flag, that define a flag, each with the index of its name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// definedFlags reads, from the non-test sources of each command under cmd/,
// the flags it defines: by command name, each flag name. -h and -help are
// defined for all of them, as the flag package answers both.
func definedFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := map[string]map[string]bool{}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{"h": true, "help": true}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if i, ok := flagDefiners[sel.Sel.Name]; ok && i < len(call.Args) {
					if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							flags[name] = true
						}
					}
				}
				return true
			})
		}
		out[filepath.Base(dir)] = flags
	}
	return out
}

// shellSnippets returns the shell text of a markdown document: each line of
// its fenced blocks, with backslash continuations joined, and each inline
// code span outside them (a span may wrap within its paragraph).
func shellSnippets(md string) []string {
	var out []string
	var fenced bool
	var joined, para strings.Builder
	spans := func() {
		parts := strings.Split(para.String(), "`")
		for i := 1; i < len(parts); i += 2 {
			out = append(out, parts[i])
		}
		para.Reset()
	}
	for _, line := range strings.Split(md, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			spans()
			fenced = !fenced
		case fenced:
			if s, ok := strings.CutSuffix(strings.TrimRight(line, " \t"), `\`); ok {
				joined.WriteString(s + " ")
				continue
			}
			out = append(out, joined.String()+line)
			joined.Reset()
		case strings.TrimSpace(line) == "":
			spans()
		default:
			para.WriteString(line + " ")
		}
	}
	spans()
	return out
}

// shellWords splits shell text into words at white space outside quotes.
func shellWords(s string) []string {
	var out []string
	var w strings.Builder
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			}
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote = r
			w.WriteRune(r)
		case unicode.IsSpace(r):
			if w.Len() > 0 {
				out = append(out, w.String())
				w.Reset()
			}
		default:
			w.WriteRune(r)
		}
	}
	if w.Len() > 0 {
		out = append(out, w.String())
	}
	return out
}

var flagWord = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)(=|$)`)

// undefinedFlags returns each -flag of md's shell snippets that follows the
// name or path of a command in defined which that command does not define,
// and how many flags it checked. A command's arguments end at a pipe, a list
// operator or the next command; a command path handed to a go subcommand
// other than run (go build, go test) is an argument, not an invocation.
func undefinedFlags(md string, defined map[string]map[string]bool) (bad []string, checked int) {
	for _, snippet := range shellSnippets(md) {
		cmd, goTool := "", false
		words := shellWords(snippet)
		for i, w := range words {
			if m := flagWord.FindStringSubmatch(w); m != nil && cmd != "" {
				checked++
				if !defined[cmd][m[1]] {
					bad = append(bad, fmt.Sprintf("%s defines no -%s: %.120q", cmd, m[1], snippet))
				}
				continue
			}
			switch {
			case w == "|" || w == "||" || w == "&&" || w == ";" || w == "&":
				cmd, goTool = "", false
			case w == "go" && i+1 < len(words) && words[i+1] != "run":
				cmd, goTool = "", true
			case defined[path.Base(w)] != nil && !goTool:
				cmd = path.Base(w)
			}
		}
	}
	return bad, checked
}

// TestDocumentedFlagsExist: every flag the README, DESIGN.md and the verify
// skill pass to one of the commands under cmd/ is one that command defines,
// so that a recipe run as written does not exit with "flag provided but not
// defined".
func TestDocumentedFlagsExist(t *testing.T) {
	defined := definedFlags(t)
	if len(defined) != 6 {
		t.Fatalf("read the flags of %d commands under cmd/, want 6", len(defined))
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		bad, n := undefinedFlags(string(raw), defined)
		for _, b := range bad {
			t.Errorf("%s: %s", doc, b)
		}
		checked += n
	}
	// The documents pass dozens of flags; a scan that finds few has stopped
	// seeing the invocations.
	if checked < 30 {
		t.Errorf("checked %d documented flags, want the dozens the documents pass", checked)
	}
}

// TestDocumentedFlagsScan runs the scan over a fixture: a flag no command
// defines is reported after a command's name or path, in a fenced block
// continued over lines and in a wrapped inline span; a flag after a go
// subcommand's package path, after a pipe, or before any command is not.
func TestDocumentedFlagsScan(t *testing.T) {
	defined := map[string]map[string]bool{"ldapmaster": {"addr": true, "data": true}}
	md := "Start `ldapmaster -addr\n:1 -gone` first.\n\n" +
		"```bash\n/tmp/v/ldapmaster -addr :1 \\\n  -data d -old 1 >log 2>&1 &\n" +
		"go test ./cmd/ldapmaster -run X\nldapmaster -addr :1 | grep -v x\n```\n" +
		"Pass `-other` to `ldapmaster`, or run `go run ./cmd/ldapmaster -data=d`.\n"
	bad, checked := undefinedFlags(md, defined)
	var got []string
	for _, b := range bad {
		got = append(got, b[:strings.IndexByte(b, ':')])
	}
	want := "ldapmaster defines no -gone ldapmaster defines no -old"
	if strings.Join(got, " ") != want || checked != 7 {
		t.Errorf("reported %q after %d flags, want %q after 7", got, checked, want)
	}
}

package runspec

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var roleNames = []struct {
	role Role
	name string
	// base is the role's minimal accepted command line.
	base []string
}{
	{Sim, "fedsim", nil},
	{Server, "fedserver", nil},
	{Client, "fedclient", []string{"-id", "0"}},
	{Agg, "fedagg", []string{"-agg", "0", "-aggregators", "2", "-upstream", "127.0.0.1:1"}},
}

// parse registers role on a fresh FlagSet and parses args, in process.
func parse(t *testing.T, role Role, args ...string) (*Spec, *flag.FlagSet, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := Register(fs, role)
	return s, fs, fs.Parse(args)
}

// The role's minimal command line validates; without it the required flags
// reject.
func TestBaseCommandLines(t *testing.T) {
	for _, r := range roleNames {
		s, _, err := parse(t, r.role, r.base...)
		if err != nil {
			t.Fatalf("%s %v: %v", r.name, r.base, err)
		}
		if err := s.Validate(r.role); err != nil {
			t.Fatalf("%s %v: %v", r.name, r.base, err)
		}
		if len(r.base) > 0 {
			s, _, _ := parse(t, r.role)
			if s.Validate(r.role) == nil {
				t.Fatalf("%s with no arguments should be rejected", r.name)
			}
		}
	}
}

// Every interlock row, as data: its trigger is rejected with the row's own
// reason under every role it lists, and the row rejects nothing under the
// roles it does not list (where the trigger's flags exist at all).
func TestInterlockRows(t *testing.T) {
	for _, row := range interlocks {
		if row.kind != impossible && row.kind != missingState {
			t.Errorf("%s %s %s: kind %q", row.when, row.verb, row.with, row.kind)
		}
		if row.verb != requires && row.verb != excludes {
			t.Errorf("%s %s %s: unknown verb", row.when, row.verb, row.with)
		}
		for _, r := range roleNames {
			args := append(append([]string(nil), r.base...), row.trigger...)
			s, _, err := parse(t, r.role, args...)
			listed := row.roles&r.role != 0
			if err != nil {
				if listed {
					t.Errorf("%s %v: trigger does not parse: %v", r.name, args, err)
				}
				continue // the role has no such flag: nothing to accept
			}
			err = s.Validate(r.role)
			switch {
			case listed && err == nil:
				t.Errorf("%s %v: accepted, want %q", r.name, args, row.reason)
			case listed && !strings.Contains(err.Error(), "("+row.reason+")"):
				t.Errorf("%s %v: rejected by %q, want this row's %q", r.name, args, err, row.reason)
			case !listed && err != nil && strings.Contains(err.Error(), row.reason):
				t.Errorf("%s %v: row lists no such role but rejected: %v", r.name, args, err)
			}
		}
	}
}

// The virtual-clock knobs fedsim used to drop silently in node mode.
func TestNodeModeRejectsMixAndWorkers(t *testing.T) {
	for _, mode := range [][]string{{"-transport", "tcp"}, {"-topology", "tree", "-aggregators", "2"}} {
		for _, knob := range [][]string{{"-mix", "0.3"}, {"-workers", "2"}} {
			args := append(append([]string(nil), mode...), knob...)
			s, _, err := parse(t, Sim, args...)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(Sim); err == nil || !strings.Contains(err.Error(), knob[0]) {
				t.Errorf("fedsim %v: got %v, want a rejection naming %s", args, err, knob[0])
			}
			// The same knob on the virtual clock stays accepted.
			s, _, _ = parse(t, Sim, knob...)
			if err := s.Validate(Sim); err != nil {
				t.Errorf("fedsim %v: %v", knob, err)
			}
		}
	}
}

// A sample of range rows and parse errors, per role; the messages keep the
// substrings cmd/*/main_test.go assert.
func TestRangesAndParses(t *testing.T) {
	cases := []struct {
		role Role
		args []string
		want string
	}{
		{Sim, []string{"-rate", "0"}, "-rate must be in (0, 1]"},
		{Sim, []string{"-quorum", "9"}, "-quorum must be in [0, 8 (-clients)]"},
		{Sim, []string{"-clients", "3", "-stragglers", "4"}, "-stragglers"},
		{Sim, []string{"-resident", "-1"}, "-resident must be >= 0"},
		{Sim, []string{"-slowdown", "0.5"}, "-slowdown"},
		{Sim, []string{"-topology", "ring"}, "-topology must be flat | tree"},
		{Sim, []string{"-transport", "smoke-signals"}, "unknown transport"},
		{Sim, []string{"-fleet", "mesh"}, "fleet"},
		{Sim, []string{"-arch", "resnet,vgg"}, "vgg"},
		{Sim, []string{"-ckptcodec", "f16"}, "codec"},
		{Server, []string{"-heartbeat", "0s"}, "-heartbeat must be > 0"},
		{Server, []string{"-aggregators", "9"}, "-aggregators"},
		{Server, []string{"-method", "Gossip"}, "method"},
		{Client, []string{"-id", "9", "-clients", "3"}, "-id must be in [0, 3 (-clients))"},
		{Client, []string{"-id", "0", "-chaos-drop", "1.5"}, "-chaos-drop"},
		{Client, []string{"-id", "0", "-reconnect", "-1s"}, "-reconnect must be >= 0, got -1s"},
		{Agg, []string{"-agg", "2", "-aggregators", "2", "-upstream", "x"}, "-agg must be in [0, -aggregators)"},
		{Agg, []string{"-agg", "0", "-aggregators", "2", "-upstream", "x", "-reconnect", "0s"}, "-reconnect must be > 0"},
	}
	for _, tc := range cases {
		s, _, err := parse(t, tc.role, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if err := s.Validate(tc.role); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
	// Seeds are the one kind of flag that may be negative.
	if s, _, _ := parse(t, Sim, "-seed", "-3"); s.Validate(Sim) != nil {
		t.Error("a negative -seed must be accepted")
	}
}

var defaultRE = regexp.MustCompile(`(?m)^  -(\S+).*\n    \t.*?(?: \(default (.*)\))?$`)

// printedDefaults is what -h shows: name=default, default empty when the
// flag package prints none.
func printedDefaults(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.SetOutput(&b)
	fs.PrintDefaults()
	var out []string
	for _, m := range defaultRE.FindAllStringSubmatch(b.String(), -1) {
		out = append(out, m[1]+"="+m[2])
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// The flag names and printed defaults of each binary's -h, recorded at
// d0bc457; the one rename since is fedserver's -ckpt-codec → -ckptcodec.
func TestDefaultsPinned(t *testing.T) {
	want := map[Role]string{
		Sim:    `aggregators= arch= checkpoint= ckptcodec="f64" clients= codec="f64" dataset="fashion" decay= delta= dtype="f64" evalsample= every=1 featdim= fleet="heterogeneous" leave= method="Proposed" mix= partition="dir" quorum= rate=1 rejoin= resident= resume= rounds= sched="sync" seed=1 slowdown=2 staleness= stragglers= topk= topology="flat" trace= transport="inproc" width= workers=`,
		Server: `addr="127.0.0.1:7143" aggregators= checkpoint= ckptcodec="f64" clients= codec="f64" dataset="fashion" dead= decay= delta= dtype="f64" evalsample= every=1 featdim= heartbeat=1s method="Proposed" quorum= rate=1 resume= rounds= sched="sync" seed=1 staleness= topk= window=10s`,
		Client: `addr="127.0.0.1:7143" chaos-delay= chaos-drop= chaos-dup= chaos-seed= clients= codec="f64" dataset="fashion" delta= dial-timeout=30s dtype="f64" featdim= fleet="heterogeneous" id=-1 method="Proposed" partition="dir" reconnect=30s seed=1 session= topk=`,
		Agg:    `addr="127.0.0.1:0" agg=-1 aggregators= clients= codec="f64" dataset="fashion" dead= delta= dial-timeout=30s dtype="f64" featdim= heartbeat=1s method="Proposed" reconnect=30s seed=1 topk= upstream= window=10s`,
	}
	for _, r := range roleNames {
		_, fs, err := parse(t, r.role)
		if err != nil {
			t.Fatal(err)
		}
		if got := printedDefaults(fs); got != want[r.role] {
			t.Errorf("%s -h defaults\n got %s\nwant %s", r.name, got, want[r.role])
		}
	}
}

// One declaration per name: a flag two roles register has the same help and
// default in both. The single exception is recorded in Register.
func TestSharedFlagsAgree(t *testing.T) {
	names := map[string]bool{}
	seen := map[string]*flag.Flag{}
	for _, d := range new(Spec).decls() {
		if names[d.name] {
			t.Errorf("-%s declared twice", d.name)
		}
		names[d.name] = true
	}
	if len(names) != 49 {
		t.Errorf("%d flag names, want 49", len(names))
	}
	for _, r := range roleNames {
		_, fs, _ := parse(t, r.role)
		fs.VisitAll(func(f *flag.Flag) {
			first, ok := seen[f.Name]
			if !ok {
				seen[f.Name] = f
				return
			}
			if f.Usage != first.Usage {
				t.Errorf("-%s: help differs between roles", f.Name)
			}
			if f.DefValue != first.DefValue && !(f.Name == "addr" && r.role == Agg) {
				t.Errorf("-%s: default %q in %s, %q elsewhere", f.Name, f.DefValue, r.name, first.DefValue)
			}
		})
	}
	if len(seen) != len(names) {
		t.Errorf("%d names declared, %d registered by some role", len(names), len(seen))
	}
}

// renderRoles names a role mask the way DESIGN.md does.
func renderRoles(m Role) string {
	var out []string
	for _, r := range roleNames {
		if m&r.role != 0 {
			out = append(out, r.name)
		}
	}
	return strings.Join(out, ", ")
}

// DESIGN.md's "Rejected combinations" table is these rows, rendered (reasons
// in sentence case, so each reason sentence greps to one line of Go).
func TestDesignTableMatchesInterlocks(t *testing.T) {
	var b strings.Builder
	b.WriteString("| Combination | Binaries | Why | Kind |\n|---|---|---|---|\n")
	for _, r := range interlocks {
		fmt.Fprintf(&b, "| `%s` %s `%s` | %s | %s | %s |\n", r.when, r.verb, r.with, renderRoles(r.roles),
			strings.ToUpper(r.reason[:1])+r.reason[1:], r.kind)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), b.String()) {
		t.Errorf("DESIGN.md \"Rejected combinations\" is out of date; the table should read:\n%s", b.String())
	}
}

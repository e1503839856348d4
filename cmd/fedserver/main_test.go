package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/experiments"
)

// serverProc is a running fedserver with its stdout scraped line by line.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string
	lines chan string // every stdout line after the listen banner
	errs  *strings.Builder
}

// startServer launches a fedserver binary on :0 and blocks until it prints
// its bound address.
func startServer(t *testing.T, bin string, env []string, args ...string) *serverProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var errs strings.Builder
	cmd.Stderr = &errs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sp := &serverProc{cmd: cmd, lines: make(chan string, 256), errs: &errs}
	scanner := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		defer close(sp.lines)
		for scanner.Scan() {
			line := scanner.Text()
			if a, ok := strings.CutPrefix(line, "# fedserver listening on "); ok {
				addrCh <- a
				continue
			}
			sp.lines <- line
		}
	}()
	select {
	case sp.addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("fedserver did not print its address\nstderr:\n%s", errs.String())
	}
	return sp
}

// wait collects the rest of the server's stdout and its exit status.
func (sp *serverProc) wait(t *testing.T) []string {
	t.Helper()
	var out []string
	for line := range sp.lines {
		out = append(out, line)
	}
	if err := sp.cmd.Wait(); err != nil {
		t.Fatalf("fedserver exited with %v\nstdout:\n%s\nstderr:\n%s", err, strings.Join(out, "\n"), sp.errs.String())
	}
	return out
}

// startClient launches one fedclient process against the server.
func startClient(t *testing.T, bin string, env []string, addr string, id int, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-addr", addr, "-id", strconv.Itoa(id)}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// binaries builds fedserver and fedclient once per test process, into a
// directory that outlives any single test (t.TempDir would vanish with
// the first test that built them).
var (
	binOnce              sync.Once
	serverBin, clientBin string
	binErr               error
)

func binaries(t *testing.T) (string, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process smoke test skipped in -short mode")
	}
	binOnce.Do(func() {
		goBin, err := exec.LookPath("go")
		if err != nil {
			binErr = err
			return
		}
		dir, err := os.MkdirTemp("", "fednodes")
		if err != nil {
			binErr = err
			return
		}
		for _, b := range []struct{ out, pkg string }{
			{"fedserver.bin", "."},
			{"fedclient.bin", "../fedclient"},
		} {
			build := exec.Command(goBin, "build", "-o", dir+"/"+b.out, b.pkg)
			if out, err := build.CombinedOutput(); err != nil {
				binErr = fmt.Errorf("go build %s: %v\n%s", b.pkg, err, out)
				return
			}
		}
		serverBin, clientBin = dir+"/fedserver.bin", dir+"/fedclient.bin"
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return serverBin, clientBin
}

// parseFinal extracts the mean accuracy from the "# final: X ± Y" line.
func parseFinal(t *testing.T, lines []string) float64 {
	t.Helper()
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "# final: "); ok {
			fields := strings.Fields(rest)
			acc, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				t.Fatalf("unparseable final line %q: %v", line, err)
			}
			return acc
		}
	}
	t.Fatalf("no final line in output:\n%s", strings.Join(lines, "\n"))
	return 0
}

// TestMultiProcessSmokeParity is the ISSUE's multi-process smoke test: one
// fedserver plus three fedclient processes over localhost at tiny scale
// must reproduce the in-process sync run's final accuracy to within 0.02
// at the same seed.
func TestMultiProcessSmokeParity(t *testing.T) {
	sbin, cbin := binaries(t)
	const clients, rounds = 3, 3
	env := []string{"REPRO_SCALE=tiny"}

	// The in-process reference at the identical configuration.
	s := experiments.Tiny()
	s.Clients, s.Rounds, s.Seed = clients, rounds, 1
	build, _, err := experiments.NewFleetBuilder(experiments.Fashion, data.Dirichlet, "heterogeneous", clients, s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Run(experiments.MethodProposed, experiments.Fashion, build, clients, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	wantFinal := experiments.Final(want).MeanAcc

	srv := startServer(t, sbin, env, "-clients", fmt.Sprint(clients), "-rounds", fmt.Sprint(rounds), "-seed", "1")
	for i := 0; i < clients; i++ {
		startClient(t, cbin, env, srv.addr, i, "-clients", fmt.Sprint(clients), "-seed", "1")
	}
	got := parseFinal(t, srv.wait(t))
	if d := math.Abs(got - wantFinal); d > 0.02 {
		t.Fatalf("multi-process final accuracy %.4f vs inproc sync %.4f (Δ %.4f > 0.02)", got, wantFinal, d)
	}
}

// TestMultiProcessAllMethods runs every algorithm family through the real
// binaries: the acceptance criterion that all five methods are runnable
// through fedserver/fedclient.
func TestMultiProcessAllMethods(t *testing.T) {
	sbin, cbin := binaries(t)
	env := []string{"REPRO_SCALE=tiny"}
	cases := []struct {
		method string
		fleet  string
	}{
		{experiments.MethodBaseline, "heterogeneous"},
		{experiments.MethodFedProto, "proto"},
		{experiments.MethodKTpFL, "heterogeneous"},
		{experiments.MethodFedAvg, "homogeneous"},
		{experiments.MethodProposed, "heterogeneous"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.method, func(t *testing.T) {
			const clients = 3
			srv := startServer(t, sbin, env, "-clients", fmt.Sprint(clients), "-rounds", "2", "-method", tc.method)
			for i := 0; i < clients; i++ {
				startClient(t, cbin, env, srv.addr, i,
					"-clients", fmt.Sprint(clients), "-method", tc.method, "-fleet", tc.fleet)
			}
			acc := parseFinal(t, srv.wait(t))
			if acc < 0 || acc > 1 {
				t.Fatalf("%s final accuracy out of range: %v", tc.method, acc)
			}
		})
	}
}

// pickPort reserves a localhost address by binding and releasing it, so a
// killed fedserver can be restarted on the same address its clients are
// still re-dialing.
func pickPort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// dataRounds extracts the round column of every CSV data row.
func dataRounds(t *testing.T, lines []string) []int {
	t.Helper()
	var rounds []int
	for _, line := range lines {
		if len(line) == 0 || line[0] < '0' || line[0] > '9' {
			continue
		}
		r, err := strconv.Atoi(line[:strings.IndexByte(line, ',')])
		if err != nil {
			t.Fatalf("unparseable data row %q: %v", line, err)
		}
		rounds = append(rounds, r)
	}
	return rounds
}

// parseFaults extracts the reconnect and churn counters from the
// "# faults: ..." summary line.
func parseFaults(t *testing.T, lines []string) (reconnects, churned int) {
	t.Helper()
	for _, line := range lines {
		if strings.HasPrefix(line, "# faults: ") {
			var disc, drops, resends int
			if _, err := fmt.Sscanf(line, "# faults: reconnects=%d disconnects=%d churned=%d stale_drops=%d resends=%d",
				&reconnects, &disc, &churned, &drops, &resends); err != nil {
				t.Fatalf("unparseable faults line %q: %v", line, err)
			}
			return reconnects, churned
		}
	}
	t.Fatalf("no faults line in output:\n%s", strings.Join(lines, "\n"))
	return 0, 0
}

// TestMultiProcessKillServerResume SIGKILLs the fedserver mid-federation —
// no goodbye to anyone, exactly like a crashed host — then restarts it on
// the same address with -resume pointed at the latest checkpoint. The
// still-running clients re-attach with their session tokens and the
// federation completes every remaining round with no committed-round gaps.
func TestMultiProcessKillServerResume(t *testing.T) {
	sbin, cbin := binaries(t)
	const clients, rounds = 3, 6
	env := []string{"REPRO_SCALE=tiny"}
	addr := pickPort(t)
	ckptDir := t.TempDir()

	srv := startServer(t, sbin, env, "-addr", addr,
		"-clients", fmt.Sprint(clients), "-rounds", fmt.Sprint(rounds), "-checkpoint", ckptDir)
	for i := 0; i < clients; i++ {
		startClient(t, cbin, env, srv.addr, i, "-clients", fmt.Sprint(clients))
	}
	// Wait for the first committed round to appear, then kill -9.
	var before []string
	for line := range srv.lines {
		before = append(before, line)
		if len(line) > 0 && line[0] >= '0' && line[0] <= '9' {
			break
		}
	}
	if len(dataRounds(t, before)) == 0 {
		t.Fatalf("no data row before the kill:\n%s\nstderr:\n%s", strings.Join(before, "\n"), srv.errs.String())
	}
	srv.cmd.Process.Kill()
	srv.cmd.Wait()
	for line := range srv.lines {
		before = append(before, line)
	}

	snaps, err := filepath.Glob(filepath.Join(ckptDir, "round-*.ckpt"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no checkpoints on disk (%v): %v", err, snaps)
	}
	sort.Strings(snaps)
	latest := snaps[len(snaps)-1]
	var resumeRound int
	if _, err := fmt.Sscanf(filepath.Base(latest), "round-%d.ckpt", &resumeRound); err != nil {
		t.Fatalf("unparseable checkpoint name %q: %v", latest, err)
	}
	// Every round the dead server managed to print was checkpointed.
	for _, r := range dataRounds(t, before) {
		if r > resumeRound {
			t.Fatalf("round %d printed but latest checkpoint is round %d", r, resumeRound)
		}
	}

	srv2 := startServer(t, sbin, env, "-addr", addr,
		"-clients", fmt.Sprint(clients), "-rounds", fmt.Sprint(rounds), "-checkpoint", ckptDir, "-resume", latest)
	out := srv2.wait(t)
	if !strings.Contains(srv2.errs.String(), "resuming from") {
		t.Errorf("restarted server never announced the resume; stderr:\n%s", srv2.errs.String())
	}
	got := dataRounds(t, out)
	if len(got) == 0 {
		t.Fatalf("resumed server committed nothing:\n%s", strings.Join(out, "\n"))
	}
	for i, r := range got {
		if want := resumeRound + 1 + i; r != want {
			t.Fatalf("resumed round sequence has a gap: row %d is round %d, want %d", i, r, want)
		}
	}
	if last := got[len(got)-1]; last != rounds {
		t.Fatalf("resumed run stopped at round %d, want %d", last, rounds)
	}
	reconnects, churned := parseFaults(t, out)
	if reconnects != clients {
		t.Errorf("resumed server adopted %d reconnects, want %d (every client, by token)", reconnects, clients)
	}
	if churned != 0 {
		t.Errorf("resumed server churned %d sessions, want 0", churned)
	}
	acc := parseFinal(t, out)
	if acc < 0 || acc > 1 {
		t.Fatalf("resumed final accuracy out of range: %v", acc)
	}
}

// TestMultiProcessClientRestartResume kills two client processes after the
// first committed round: one restarts immediately with its -session token
// file and resumes its identity; the other never returns and churns once
// the reconnect window elapses. The federation finishes every round.
func TestMultiProcessClientRestartResume(t *testing.T) {
	sbin, cbin := binaries(t)
	const clients, rounds = 4, 6
	env := []string{"REPRO_SCALE=tiny"}
	tokFile := filepath.Join(t.TempDir(), "client2.token")

	srv := startServer(t, sbin, env, "-clients", fmt.Sprint(clients), "-rounds", fmt.Sprint(rounds),
		"-heartbeat", "100ms", "-window", "2s")
	var procs []*exec.Cmd
	for i := 0; i < clients; i++ {
		extra := []string{"-clients", fmt.Sprint(clients)}
		if i == 2 {
			extra = append(extra, "-session", tokFile)
		}
		procs = append(procs, startClient(t, cbin, env, srv.addr, i, extra...))
	}
	var collected []string
	killed := false
	for line := range srv.lines {
		collected = append(collected, line)
		if !killed && len(line) > 0 && line[0] >= '0' && line[0] <= '9' {
			// The token file exists by now: the welcome that granted it
			// preceded round 1. Kill both, restart only client 2.
			if err := procs[2].Process.Kill(); err != nil {
				t.Fatal(err)
			}
			if err := procs[3].Process.Kill(); err != nil {
				t.Fatal(err)
			}
			startClient(t, cbin, env, srv.addr, 2, "-clients", fmt.Sprint(clients), "-session", tokFile)
			killed = true
		}
	}
	if !killed {
		t.Fatalf("no data row ever appeared:\n%s\nstderr:\n%s", strings.Join(collected, "\n"), srv.errs.String())
	}
	if err := srv.cmd.Wait(); err != nil {
		t.Fatalf("fedserver exited with %v\nstdout:\n%s\nstderr:\n%s",
			err, strings.Join(collected, "\n"), srv.errs.String())
	}
	got := dataRounds(t, collected)
	if len(got) != rounds {
		t.Fatalf("federation committed %d rounds, want %d:\n%s", len(got), rounds, strings.Join(collected, "\n"))
	}
	for i, r := range got {
		if r != i+1 {
			t.Fatalf("round sequence has a gap: row %d is round %d", i, r)
		}
	}
	reconnects, churned := parseFaults(t, collected)
	if reconnects < 1 {
		t.Errorf("server adopted %d reconnects, want >= 1 (the restarted client)", reconnects)
	}
	if churned != 1 {
		t.Errorf("server churned %d sessions, want exactly 1 (the never-returning client)", churned)
	}
	acc := parseFinal(t, collected)
	if acc < 0 || acc > 1 {
		t.Fatalf("final accuracy out of range: %v", acc)
	}
}

// TestMultiProcessKillClientChurn SIGKILLs one of three client processes
// after the first round has committed; the federation must finish every
// remaining round with the survivors and exit cleanly.
func TestMultiProcessKillClientChurn(t *testing.T) {
	sbin, cbin := binaries(t)
	const clients, rounds = 3, 6
	env := []string{"REPRO_SCALE=tiny"}
	srv := startServer(t, sbin, env, "-clients", fmt.Sprint(clients), "-rounds", fmt.Sprint(rounds))
	var procs []*exec.Cmd
	for i := 0; i < clients; i++ {
		procs = append(procs, startClient(t, cbin, env, srv.addr, i, "-clients", fmt.Sprint(clients)))
	}
	// Wait for the first CSV data row (round 1 committed), then kill one
	// client outright.
	var collected []string
	killed := false
	for line := range srv.lines {
		collected = append(collected, line)
		if !killed && len(line) > 0 && line[0] >= '0' && line[0] <= '9' {
			if err := procs[clients-1].Process.Kill(); err != nil {
				t.Fatal(err)
			}
			killed = true
		}
	}
	if !killed {
		t.Fatalf("no data row ever appeared:\n%s\nstderr:\n%s", strings.Join(collected, "\n"), srv.errs.String())
	}
	if err := srv.cmd.Wait(); err != nil {
		t.Fatalf("churned fedserver exited with %v\nstdout:\n%s\nstderr:\n%s",
			err, strings.Join(collected, "\n"), srv.errs.String())
	}
	rows := 0
	for _, line := range collected {
		if len(line) > 0 && line[0] >= '0' && line[0] <= '9' {
			rows++
		}
	}
	if rows != rounds {
		t.Fatalf("churned run committed %d rounds, want %d:\n%s", rows, rounds, strings.Join(collected, "\n"))
	}
	acc := parseFinal(t, collected)
	if acc < 0 || acc > 1 {
		t.Fatalf("churned final accuracy out of range: %v", acc)
	}
}

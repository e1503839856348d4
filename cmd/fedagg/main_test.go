package main

import (
	"bufio"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/cmdtest"
)

// Flag interlocks: every invalid topology or liveness combination must be
// refused at startup with exit 2 and a message naming the offending flag,
// before the aggregator binds anything upstream. (The positive path — a
// full 2-level tree — runs in cmd/fedserver's multi-process test and in
// CI's tree job; a lone fedagg cannot complete a federation.)
func TestFedaggInterlocks(t *testing.T) {
	common := []string{"-dataset", "fashion", "-clients", "6", "-featdim", "16", "-upstream", "127.0.0.1:1"}
	rejects := []struct {
		args []string
		want string
	}{
		{[]string{"-dataset", "fashion", "-clients", "6", "-agg", "0", "-aggregators", "2"}, "-upstream"},
		{append(append([]string(nil), common...), "-agg", "0"), "-aggregators"},
		{append(append([]string(nil), common...), "-agg", "0", "-aggregators", "7"), "-aggregators"},
		{append(append([]string(nil), common...), "-aggregators", "2"), "-agg"},
		{append(append([]string(nil), common...), "-agg", "2", "-aggregators", "2"), "-agg"},
		{append(append([]string(nil), common...), "-agg", "-1", "-aggregators", "2"), "-agg"},
		{append(append([]string(nil), common...), "-agg", "0", "-aggregators", "2", "-window", "0s"), "-window"},
		{append(append([]string(nil), common...), "-agg", "0", "-aggregators", "2", "-reconnect", "0s"), "-reconnect"},
	}
	for _, tc := range rejects {
		out := cmdtest.RunErr(t, 2, nil, tc.args...)
		if !strings.Contains(out, tc.want) {
			t.Fatalf("rejection for %v should mention %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// KT-pFL has no sound pre-reduction, so its aggregator passes updates
// through unreduced: it must start, not be refused. A lone aggregator blocks
// forever waiting for its children, so the test watches for the listen
// banner and then kills the process.
func TestFedaggKTpFLAutoStarts(t *testing.T) {
	bin := cmdtest.Build(t, ".")
	cmd := exec.Command(bin,
		"-dataset", "fashion", "-clients", "6", "-featdim", "16",
		"-upstream", "127.0.0.1:1", "-agg", "0", "-aggregators", "2",
		"-method", "KT-pFL")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var errs strings.Builder
	cmd.Stderr = &errs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	banner := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			if strings.HasPrefix(scanner.Text(), "# fedagg listening on ") {
				banner <- scanner.Text()
				return
			}
		}
		banner <- ""
	}()
	select {
	case line := <-banner:
		if line == "" {
			t.Fatalf("KT-pFL should pass validation and bind\nstderr:\n%s", errs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no listen banner")
	}
}

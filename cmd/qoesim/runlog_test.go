package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/runlog"
)

// TestMain lets a test run the real qoesim entry point in a child process:
// with QOESIM_TEST_MAIN=1 set, the test binary behaves exactly like qoesim.
func TestMain(m *testing.M) {
	if os.Getenv("QOESIM_TEST_MAIN") == "1" {
		os.Exit(realMain())
	}
	os.Exit(m.Run())
}

// TestRunLogCellsMatchEngine holds the CLI and the served path to one
// run-log converter and one SLO watchdog: qoesim -runlog and an Engine job
// log for the same request emit identical cell and alert records, and the
// same summary slo_violations, once host wall time is masked.
func TestRunLogCellsMatchEngine(t *testing.T) {
	const slo = "../../internal/scenario/testdata/web_sweep_slo.json"
	cases := []struct {
		name   string
		args   []string
		req    engine.Request
		cells  int
		alerts int
	}{
		{"experiment", []string{"-run", "fig6", "-trials", "2"},
			engine.Request{Experiment: "fig6", Trials: 2}, 2, 0},
		// The scenario's 1ms virtual-time budget always trips.
		{"slo scenario", []string{"-scenario", slo, "-pages", "1", "-trials", "2"},
			engine.Request{ScenarioPath: slo, Pages: 1, Trials: 2}, 2, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ndjson")
			cmd := exec.Command(os.Args[0], append(c.args, "-parallel", "2", "-runlog", path)...)
			cmd.Env = append(os.Environ(), "QOESIM_TEST_MAIN=1")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("qoesim: %v\n%s", err, out)
			}
			cliLog, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			e := engine.New(engine.Config{Tool: "qoesim-test", Parallel: 2, AllowLocalFiles: true})
			defer e.Close()
			j, err := e.Run(context.Background(), c.req)
			if err != nil {
				t.Fatalf("engine run: %v", err)
			}

			cli, served := readLog(t, cliLog), readLog(t, j.Log().Bytes())
			if len(cli.cells) != c.cells || len(served.cells) != len(cli.cells) {
				t.Fatalf("cell counts: cli %d, engine %d, want %d each", len(cli.cells), len(served.cells), c.cells)
			}
			for i := range cli.cells {
				if cli.cells[i] != served.cells[i] {
					t.Errorf("cell %d differs:\n  cli    %+v\n  engine %+v", i, cli.cells[i], served.cells[i])
				}
				if cli.cells[i].VirtualMS == 0 {
					t.Errorf("cell %d carries no virtual time: %+v", i, cli.cells[i])
				}
			}
			if len(cli.alerts) != c.alerts || len(served.alerts) != len(cli.alerts) {
				t.Fatalf("alert counts: cli %d, engine %d, want %d each", len(cli.alerts), len(served.alerts), c.alerts)
			}
			for i := range cli.alerts {
				if cli.alerts[i] != served.alerts[i] {
					t.Errorf("alert %d differs:\n  cli    %+v\n  engine %+v", i, cli.alerts[i], served.alerts[i])
				}
			}
			if cli.violations != c.alerts || served.violations != cli.violations {
				t.Errorf("slo_violations: cli %d, engine %d, want %d", cli.violations, served.violations, c.alerts)
			}
		})
	}
}

// runLog is the deterministic part of a run log: cell records with wall
// time zeroed, alert records, and the summary's SLO violation count.
type runLog struct {
	cells      []runlog.Cell
	alerts     []runlog.Alert
	violations int
}

func readLog(t *testing.T, data []byte) runLog {
	t.Helper()
	var l runLog
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rec struct{ Type string }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case "cell":
			var c runlog.Cell
			if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
				t.Fatal(err)
			}
			c.WallMS = 0
			l.cells = append(l.cells, c)
		case "alert":
			var a runlog.Alert
			if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
				t.Fatal(err)
			}
			l.alerts = append(l.alerts, a)
		case "summary":
			var s runlog.Summary
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			l.violations = s.SLOViolations
		}
	}
	return l
}

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
// run-log converter: qoesim -runlog and an Engine job log for the same
// request emit identical cell records once host wall time is masked.
func TestRunLogCellsMatchEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ndjson")
	cmd := exec.Command(os.Args[0], "-run", "fig6", "-trials", "2", "-parallel", "2", "-runlog", path)
	cmd.Env = append(os.Environ(), "QOESIM_TEST_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("qoesim: %v\n%s", err, out)
	}
	cliLog, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	e := engine.New(engine.Config{Tool: "qoesim-test", Parallel: 2})
	defer e.Close()
	j, err := e.Run(context.Background(), engine.Request{Experiment: "fig6", Trials: 2})
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}

	cli, served := logCells(t, cliLog), logCells(t, j.Log().Bytes())
	if len(cli) != 2 || len(served) != len(cli) {
		t.Fatalf("cell counts: cli %d, engine %d, want 2 each", len(cli), len(served))
	}
	for i := range cli {
		if cli[i] != served[i] {
			t.Errorf("cell %d differs:\n  cli    %+v\n  engine %+v", i, cli[i], served[i])
		}
		if cli[i].VirtualMS == 0 {
			t.Errorf("cell %d carries no virtual time: %+v", i, cli[i])
		}
	}
}

// logCells returns a run log's cell records with wall time zeroed.
func logCells(t *testing.T, data []byte) []runlog.Cell {
	t.Helper()
	var cells []runlog.Cell
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var c runlog.Cell
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatal(err)
		}
		if c.Type == "cell" {
			c.WallMS = 0
			cells = append(cells, c)
		}
	}
	return cells
}

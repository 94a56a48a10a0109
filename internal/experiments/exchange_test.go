package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"capsys/internal/engine"
)

func TestExchangeStudy(t *testing.T) {
	cfg := defaultExchangeConfig()
	// Keep the engine runs light for the test battery.
	cfg.Records = 2000
	cfg.BatchSizes = []int{8, 32}
	cfg.ChainRecords = 2000
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := exchangeStudy(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Q3-inf: unary baseline + one row per batch size + the two network
	// rows (the batched default size, then the network default); chain
	// section: three unfused transports + one fused row.
	q3Rows := 3 + len(cfg.BatchSizes)
	if want := q3Rows + 4; len(rep.Rows) != want {
		t.Fatalf("expected %d rows, got %d", want, len(rep.Rows))
	}
	if rep.Rows[0][1] != engine.TransportUnary {
		t.Fatalf("first row should be the unary baseline: %v", rep.Rows[0])
	}
	for _, i := range []int{q3Rows - 2, q3Rows - 1} {
		if rep.Rows[i][1] != engine.TransportNetwork {
			t.Fatalf("row %d should be the network transport: %v", i, rep.Rows[i])
		}
	}
	if got, want := rep.Rows[q3Rows-1][2], fmt.Sprintf("%d (default)", engine.DefaultNetworkBatchSize); got != want {
		t.Errorf("default network row's batch size cell = %q, want %q", got, want)
	}
	sink := rep.Rows[0][7]
	for i, row := range rep.Rows[:q3Rows] {
		if row[0] != cfg.Query {
			t.Errorf("row %d: pipeline %q, want %q", i, row[0], cfg.Query)
		}
		if row[3] != "-" {
			t.Errorf("row %d: fuse cell %q; Q3-inf has nothing to chain", i, row[3])
		}
		if row[7] != sink {
			t.Errorf("row %d: sink records %s != unary baseline %s", i, row[7], sink)
		}
		batches, err := strconv.ParseFloat(row[8], 64)
		if err != nil {
			t.Fatalf("row %d: unparseable batches %q", i, row[8])
		}
		if row[1] == engine.TransportUnary && batches != 0 {
			t.Errorf("unary row counted %v batches", batches)
		}
		if row[1] != engine.TransportUnary && batches == 0 {
			t.Errorf("%s row %v counted no batches", row[1], row)
		}
	}
	chain := rep.Rows[q3Rows:]
	chainSink := chain[0][7]
	fused := 0
	for i, row := range chain {
		if row[0] != "fwd-chain" {
			t.Errorf("chain row %d: pipeline %q, want fwd-chain", i, row[0])
		}
		if row[7] != chainSink {
			t.Errorf("chain row %d: sink records %s != chain baseline %s", i, row[7], chainSink)
		}
		if row[3] == "on" {
			fused++
			if batches, _ := strconv.ParseFloat(row[8], 64); batches != 0 {
				t.Errorf("fused chain row counted %v batches; a fused chain must bypass the exchange", batches)
			}
		}
	}
	if fused != 1 {
		t.Errorf("chain section has %d fused rows, want 1", fused)
	}
	// Q3-inf's rows run within noise of each other: only the chain section
	// may read a speed-up off the rates.
	for _, n := range rep.Notes {
		if strings.Contains(n, "the unary throughput") && !strings.Contains(n, "unfused chain") {
			t.Errorf("note %q claims a speed-up outside the chain section", n)
		}
	}
}

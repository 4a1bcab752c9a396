package workload

import (
	"context"
	"testing"

	"edsc/kv"
)

func TestRunBatchCompare(t *testing.T) {
	ctx := context.Background()
	rep, err := RunBatchCompare(ctx, kv.NewMem("m"), BatchConfig{
		BatchSizes: []int{2, 4}, ValueSize: 64, Runs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Store != "m" || len(rep.Points) != 2 {
		t.Fatalf("report = %+v", rep)
	}
	for _, p := range rep.Points {
		if p.BatchGet <= 0 || p.PerKeyGet <= 0 || p.BatchPut <= 0 || p.PerKeyPut <= 0 {
			t.Fatalf("unmeasured point: %+v", p)
		}
	}
}

// Rnnserving models a speech/translation serving scenario: GRU and LSTM
// inference streams run continuously against 7 ms deadlines while a camera
// pipeline (Canny) shares the SoC. This is the paper's continuous
// contention setup, where LAX's negative-laxity de-prioritization starves
// slack-poor applications and RELIEF keeps every stream progressing.
//
// A functional GRU/LSTM inference (internal/kernels) runs first so the
// example produces real numbers, then the scheduling comparison follows.
package main

import (
	"fmt"
	"log"
	"math"

	"relief"
	"relief/internal/kernels"
)

func main() {
	// Functional inference: batch 4, hidden 8, sequence length 8.
	const batch, hidden, seqLen = 4, 8, 8
	gw := &kernels.GRUWeights{
		Wz: kernels.RandMat(hidden, hidden, 1, 0.4), Uz: kernels.RandMat(hidden, hidden, 2, 0.4),
		Wr: kernels.RandMat(hidden, hidden, 3, 0.4), Ur: kernels.RandMat(hidden, hidden, 4, 0.4),
		Wh: kernels.RandMat(hidden, hidden, 5, 0.4), Uh: kernels.RandMat(hidden, hidden, 6, 0.4),
	}
	var seq []*kernels.Mat
	for t := 0; t < seqLen; t++ {
		seq = append(seq, kernels.RandMat(batch, hidden, uint64(100+t), 1))
	}
	hFinal := kernels.RunGRU(gw, seq, kernels.NewMat(batch, hidden))
	var norm float64
	for _, v := range hFinal.Data {
		norm += float64(v) * float64(v)
	}
	fmt.Printf("GRU inference: final hidden-state L2 norm %.4f (batch %d, hidden %d, %d steps)\n\n",
		math.Sqrt(norm), batch, hidden, seqLen)

	// Scheduling: continuous GRU + LSTM + Canny for 50 ms.
	fmt.Println("Continuous serving (GRU + LSTM + Canny, 50 ms):")
	fmt.Printf("%-12s %22s %22s %22s\n", "policy", "gru", "lstm", "canny")
	for _, policy := range []string{"FCFS", "LAX", "HetSched", "RELIEF"} {
		sys := relief.NewSystem(relief.Config{Policy: policy})
		for _, app := range []string{"gru", "lstm", "canny"} {
			d, err := relief.BuildWorkload(app)
			if err != nil {
				log.Fatal(err)
			}
			if err := sys.SubmitLoop(d, 0); err != nil {
				log.Fatal(err)
			}
		}
		rep := sys.RunFor(50 * relief.Millisecond)
		row := fmt.Sprintf("%-12s", policy)
		for _, app := range []string{"gru", "lstm", "canny"} {
			a := rep.Apps[app]
			slow := "starved"
			if !math.IsInf(a.Slowdown, 1) {
				slow = fmt.Sprintf("slowdown %.2f", a.Slowdown)
			}
			row += fmt.Sprintf(" %3d done, %-14s", a.Iterations, slow)
		}
		fmt.Println(row)
	}
}

package main

import (
	"fmt"
	"slices"
	"sync"

	"dynsum/internal/core"
	"dynsum/internal/pag"
)

type answerKey struct {
	epoch int
	v     pag.NodeID
}

// answerBook keeps the first answer dynsumd gave for every distinct
// (epoch, var) and counts later answers that disagree with it.
type answerBook struct {
	mu           sync.Mutex
	answers      map[answerKey][]int64
	inconsistent int
}

func newAnswerBook() *answerBook {
	return &answerBook{answers: make(map[answerKey][]int64)}
}

func (b *answerBook) record(epoch int, v pag.NodeID, objs []int64) {
	k := answerKey{epoch, v}
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, seen := b.answers[k]
	if !seen {
		b.answers[k] = objs
	} else if !slices.Equal(prev, objs) {
		b.inconsistent++
	}
}

// verify checks every distinct answer against a fresh in-process engine
// over the program built from scratch as of the answer's epoch: no HTTP,
// no serving core, no overlay and no shared cache history. It returns
// the number of wrong answers (inconsistent repeats included) and of
// answers skipped because the oracle itself ran out of budget.
func (b *answerBook) verify(inst *instance) (wrong, skipped int, err error) {
	byEpoch := make(map[int][]pag.NodeID)
	for k := range b.answers {
		byEpoch[k.epoch] = append(byEpoch[k.epoch], k.v)
	}
	epochs := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	slices.Sort(epochs)
	wrong = b.inconsistent
	for _, e := range epochs {
		prog, err := inst.oracleProg(e)
		if err != nil {
			return 0, 0, fmt.Errorf("oracle program for epoch %d: %w", e, err)
		}
		eng := core.NewDynSum(prog.G, engineConfig, nil)
		vars := byEpoch[e]
		slices.Sort(vars)
		for _, v := range vars {
			pts, err := eng.PointsTo(v)
			if err != nil {
				skipped++
				continue
			}
			got := b.answers[answerKey{e, v}]
			want := pts.Objects()
			if !slices.EqualFunc(want, got, func(w pag.NodeID, g int64) bool { return int64(w) == g }) {
				wrong++
			}
		}
	}
	return wrong, skipped, nil
}

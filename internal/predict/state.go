package predict

import "fmt"

// BWState is the serializable state of a bandwidth predictor. The Kind tag
// must match the predictor the state is restored into; Vals carries the
// kind-specific observation history (Last: one sample; Average: the ring
// buffer; EWMA: the running prediction).
type BWState struct {
	Kind string
	Vals []float64
	Next int
	Full bool
	Init bool
}

// CaptureBW snapshots a bandwidth predictor's observation state.
func CaptureBW(p BWPredictor) BWState {
	s := BWState{Kind: p.Name()}
	switch v := p.(type) {
	case *Max:
		// stateless
	case *Last:
		s.Vals = []float64{v.last}
		s.Init = v.last != 0
	case *Average:
		s.Vals = append([]float64(nil), v.ring...)
		s.Next = v.next
		s.Full = v.full
	case *EWMA:
		s.Vals = []float64{v.pred}
		s.Init = v.init
	default:
		panic(fmt.Sprintf("predict: cannot capture predictor %T", p))
	}
	return s
}

// RestoreBW primes a freshly constructed predictor of the same kind with
// captured observation state.
func RestoreBW(p BWPredictor, s BWState) error {
	if p.Name() != s.Kind {
		return fmt.Errorf("predict: restore into %s predictor, checkpoint has %s", p.Name(), s.Kind)
	}
	switch v := p.(type) {
	case *Max:
		// stateless
	case *Last:
		if s.Init && len(s.Vals) == 1 {
			v.last = s.Vals[0]
		}
	case *Average:
		if err := checkAverageState(v, s); err != nil {
			return err
		}
		v.ring = append([]float64(nil), s.Vals...)
		v.next = s.Next
		v.full = s.Full
	case *EWMA:
		if len(s.Vals) == 1 {
			v.pred = s.Vals[0]
		}
		v.init = s.Init
	default:
		return fmt.Errorf("predict: cannot restore predictor %T", p)
	}
	return nil
}

// checkAverageState rejects an Average state that Observe or Predict
// could not index: a ring whose length differs from the predictor's
// window, a write cursor outside the ring, or a cursor or full flag with
// no ring at all (a predictor that has not observed yet).
func checkAverageState(a *Average, s BWState) error {
	if len(s.Vals) == 0 {
		if s.Next != 0 || s.Full {
			return fmt.Errorf("predict: Average state has no samples but next=%d full=%v", s.Next, s.Full)
		}
		return nil
	}
	if n := a.window(); len(s.Vals) != n {
		return fmt.Errorf("predict: Average state has %d samples, window is %d", len(s.Vals), n)
	}
	if s.Next < 0 || s.Next >= len(s.Vals) {
		return fmt.Errorf("predict: Average state cursor %d outside [0, %d)", s.Next, len(s.Vals))
	}
	return nil
}

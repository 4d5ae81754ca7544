package experiments

import (
	"math"

	"e3/internal/cluster"
	"e3/internal/ee"
	"e3/internal/forecast"
	"e3/internal/gpu"
	"e3/internal/model"
	"e3/internal/optimizer"
	"e3/internal/profile"
	"e3/internal/workload"
)

func init() {
	register("ablation-forecaster", AblationForecaster)
	register("ablation-pipelining", AblationPipelining)
	register("ablation-splits", AblationSplits)
}

// AblationForecaster compares ARIMA against last-value persistence on a
// drifting workload: the DESIGN.md "ARIMA vs naive forecasting" ablation.
func AblationForecaster() Table {
	m := ee.NewDeeBERT(model.BERTBase(), 0.4)
	const cut = 7

	run := func(method forecast.Method) (trendMAE, shiftMAE float64) {
		est := forecast.NewEstimator(m.Base.NumLayers())
		est.Method = method
		// Steady drift in easy fraction (hardness rising through the day),
		// then a level shift.
		easyAt := func(i int) float64 {
			if i < 22 {
				return 0.85 - 0.025*float64(i)
			}
			return 0.85
		}
		for i := 0; i < 8; i++ {
			est.Observe(profile.FromDist(m, workload.Mix(easyAt(i)), windowSamples, int64(300+i)))
		}
		nT, nS := 0, 0
		for i := 8; i < 26; i++ {
			pred := est.Predict()
			actual := profile.FromDist(m, workload.Mix(easyAt(i)), windowSamples, int64(300+i))
			est.Observe(actual)
			err := math.Abs(pred.At(cut) - actual.At(cut))
			if i < 22 {
				trendMAE += err
				nT++
			} else {
				shiftMAE += err
				nS++
			}
		}
		return trendMAE / float64(nT), shiftMAE / float64(nS)
	}

	aT, aS := run(forecast.MethodARIMA)
	pT, pS := run(forecast.MethodPersistence)
	return Table{
		ID:      "ablation-forecaster",
		Title:   "Forecaster ablation: mean abs survival error at the mid cut",
		Columns: []string{"method", "trend MAE", "post-shift MAE"},
		Rows: [][]string{
			{"ARIMA(1,1,0)", f3(aT), f3(aS)},
			{"persistence", f3(pT), f3(pS)},
		},
		Notes: "ARIMA tracks the between-window trend; both need ~1 window to absorb a level shift",
	}
}

// AblationPipelining quantifies §3.2.2: composing stages by max() versus
// sum() in the planner.
func AblationPipelining() Table {
	dee := ee.NewDeeBERT(model.BERTBase(), 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }

	t := Table{
		ID:      "ablation-pipelining",
		Title:   "Pipelining ablation: planned goodput, max() vs sum() composition",
		Columns: []string{"batch", "pipelined (samples/s)", "non-pipelined (samples/s)", "gain"},
	}
	for _, b := range []int{2, 4, 8} {
		on, err1 := planE3(mk(), dee, dist, b, defaultSLO, nil)
		off, err2 := planE3(mk(), dee, dist, b, defaultSLO, func(cfg *optimizer.Config) {
			cfg.Pipelining = false
		})
		gOn, gOff := 0.0, 0.0
		if err1 == nil {
			gOn = on.Goodput
		}
		if err2 == nil {
			gOff = off.Goodput
		}
		r := 0.0
		if gOff > 0 {
			r = gOn / gOff
		}
		t.Rows = append(t.Rows, []string{itoa(b), f0(gOn), f0(gOff), f2(r)})
	}
	return t
}

// AblationSplits sweeps the optimizer's split budget: the marginal value
// of allowing more cut points.
func AblationSplits() Table {
	dee := ee.NewDeeBERT(model.BERTBase(), 0.4)
	dist := mix80()
	mk := func() *cluster.Cluster { return cluster.Homogeneous(gpu.V100, 16) }

	t := Table{
		ID:      "ablation-splits",
		Title:   "Split-budget ablation: planned goodput vs MaxSplits (batch 8)",
		Columns: []string{"max splits", "planned goodput (samples/s)", "splits used"},
	}
	for _, ms := range []int{1, 2, 3, 4, 5} {
		plan, err := planE3(mk(), dee, dist, 8, defaultSLO, func(cfg *optimizer.Config) {
			cfg.MaxSplits = ms
		})
		if err != nil {
			t.Rows = append(t.Rows, []string{itoa(ms), "-", "-"})
			continue
		}
		t.Rows = append(t.Rows, []string{itoa(ms), f0(plan.Goodput), itoa(len(plan.Splits))})
	}
	return t
}

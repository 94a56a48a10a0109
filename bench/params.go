package main

// params are the frozen sizes of the benchmark: record counts per source
// task and paced rates. They are constants of the benchmark, not tunables;
// bench/README.md records the reference-box numbers they were derived from.
// A repetition always processes exactly these counts — run length decides
// only how many repetitions are made.
type params struct {
	// records per source task in one saturated repetition.
	linearPerSource  int64
	fanoutPerSource  int64
	nexjoinPerSource int64
	keyedPerSource   int64
	placedPerSource  int64

	// aggregate paced source rates (records/s over all source tasks): 40 %
	// of the saturated throughput on the reference box, two digits. A paced
	// repetition sends the same records as a saturated one, so it lasts
	// 2.5 times as long and one reference run checks both.
	linearPacedRate  float64
	fanoutPacedRate  float64
	nexjoinPacedRate float64
	keyedPacedRate   float64
	placedPacedRate  float64

	// keyedKeys is the number of distinct keys of keyed-lifecycle.
	keyedKeys int64
	// nexjoinCheckpointEvery is the checkpoint interval of nexjoin-dist.
	nexjoinCheckpointEvery int64

	// search-scale: decisions per repetition.
	searchTasks, searchWorkers, searchSlots int
	searchAutoTunes, searchTight            int
}

func fullParams() params {
	return params{
		linearPerSource:  1_500_000,
		fanoutPerSource:  100_000,
		nexjoinPerSource: 40_000,
		keyedPerSource:   360_000,
		placedPerSource:  600,

		linearPacedRate:  2_800_000,
		fanoutPacedRate:  100_000,
		nexjoinPacedRate: 32_000,
		keyedPacedRate:   300_000,
		placedPacedRate:  470,

		keyedKeys:              100_000,
		nexjoinCheckpointEvery: 10_000,

		searchTasks: 256, searchWorkers: 32, searchSlots: 8,
		searchAutoTunes: 1, searchTight: 7,
	}
}

// quickParams is the 1/100-size benchmark of the smoke test: the same code
// paths with too few records for the numbers to mean anything.
func quickParams() params {
	p := fullParams()
	p.linearPerSource /= 100
	p.fanoutPerSource /= 100
	p.nexjoinPerSource /= 100
	p.keyedPerSource /= 100
	p.placedPerSource /= 20
	p.keyedKeys /= 100
	p.nexjoinCheckpointEvery /= 100
	p.searchTasks, p.searchWorkers, p.searchSlots = 32, 4, 8
	p.searchAutoTunes, p.searchTight = 1, 2
	return p
}

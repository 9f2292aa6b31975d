package main

// Pinned outputs and exact work counts. Each sweep digest is the
// sha256 of `califorms-bench -exp <experiments> -visits <visits>
// -workers 2` stdout (text format); the counts come from the same
// command's -perf report (gen_passes, sim_ops), its -progress total
// (cells) and its -store summary (puts). The service digests are the
// four formats of the served job spec at ServiceVisits. TestPinsMatchCLI
// re-derives all of them from califorms-bench (at tiny size on every
// run; at full size with -full).

// sweepPin pins one sweep unit.
type sweepPin struct {
	Digest    string `json:"digest"`     // sha256 of the text report
	GenPasses uint64 `json:"gen_passes"` // workload generation passes
	Instr     uint64 `json:"instr"`      // measured-region simulated instructions (probe ops)
	Cells     uint64 `json:"cells"`      // cells the pool scheduled
	Puts      uint64 `json:"puts"`       // store writes (0 without a store)
}

// servicePin pins the job spec service-warm serves.
type servicePin struct {
	Digests   map[string]string `json:"digests"`    // format -> sha256 of the result bytes
	GenPasses uint64            `json:"gen_passes"` // the set-up (cold) job's generation passes
	Instr     uint64            `json:"instr"`      // the set-up job's simulated instructions
	Cells     uint64            `json:"cells"`      // cells one job schedules
}

// pinSet pins every workload of one size.
type pinSet struct {
	PolicyCold  sweepPin   `json:"policy-cold"`
	FanoutStore sweepPin   `json:"fanout-store"`
	ServiceWarm servicePin `json:"service-warm"`
}

func (p pinSet) sweep(name string) sweepPin {
	if name == "fanout-store" {
		return p.FanoutStore
	}
	return p.PolicyCold
}

// fullPins are the pins at size full (SweepVisits and ServiceVisits
// 30000).
var fullPins = pinSet{
	PolicyCold: sweepPin{
		Digest:    "d6f0a44223818459751f1d71880c2a871d331b443e85448248e31a1b839f2af7",
		GenPasses: 240,
		Instr:     256683244,
		Cells:     240,
	},
	FanoutStore: sweepPin{
		Digest:    "88683d5f750b7a5b6bf83a52f9f8d07f932609f19a56ac049faf70f240f8fd31",
		GenPasses: 57,
		Instr:     317055045,
		Cells:     268,
		Puts:      315,
	},
	ServiceWarm: servicePin{
		Digests: map[string]string{
			"text":     "b0baf37474c8f2db99fd228e4ec1e1792b59ac64ea3e7382620dc3671c1c7966",
			"json":     "0e5b389494ea4f2154d383e18375ada449e10b50d644e5fe612e16d59a3a910d",
			"csv":      "1722d0afd6d8ff7c1049c1876a9b74b5c93eb832451b0afe1ebc0e73c49788ea",
			"markdown": "fcc9820d7c46c968dc6c3b0e3cf9b8c40c18fdeb5fa4b6ab18acab62763f0870",
		},
		GenPasses: 24,
		Instr:     181981023,
		Cells:     128,
	},
}

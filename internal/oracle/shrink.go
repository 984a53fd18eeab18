package oracle

// Failure describes one divergence between the real stack and the
// reference model.
type Failure struct {
	HistorySeed int64   // per-history seed: replays this history alone
	Step        int     // event index at which the divergence surfaced
	Msg         string  // what diverged
	History     []Event // the full failing history
	Minimal     []Event // shrunk reproducing subsequence
	Replay      string  // one-line go test command replaying the history
}

// shrinkEvents reduces a failing history to a smaller one that still
// fails, ddmin style: repeatedly remove chunks of halving size, keeping a
// candidate whenever fails() still reports a divergence. The result is
// 1-minimal with respect to the final chunk size reached within the
// re-execution budget.
func shrinkEvents(events []Event, fails func([]Event) bool) []Event {
	cur := append([]Event(nil), events...)
	budget := 400
	for size := len(cur) / 2; size >= 1; size /= 2 {
		for start := 0; start < len(cur) && budget > 0; {
			end := start + size
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]Event, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			budget--
			if len(cand) > 0 && fails(cand) {
				cur = cand // chunk was irrelevant; retry same offset
			} else {
				start = end
			}
		}
		if budget <= 0 {
			break
		}
	}
	return cur
}

package oracle

import (
	"fmt"
	"math/rand"

	"filterdir/internal/sim"
)

// EventKind enumerates the oracle's history grammar.
type EventKind int

const (
	// EvOp applies one directory operation (add/delete/modify/modDN) to
	// the master.
	EvOp EventKind = iota + 1
	// EvPoll performs one poll exchange for replica Rep; with Lost set the
	// response is dropped on the wire after the server processed it. In
	// wire histories it is a checkpoint: wait until every replica converged.
	EvPoll
	// EvRetain performs one incomplete-history (retain-mode) exchange.
	EvRetain
	// EvPersist upgrades replica Rep to persist mode at its cookie, drains
	// the due batch, and downgrades again.
	EvPersist
	// EvBadCookie polls with a corrupted generation; the engine must
	// answer with a full reload.
	EvBadCookie
	// EvEnd ends replica Rep's session server-side (operator abandon /
	// restart); the replica only learns at its next exchange.
	EvEnd
	// EvShift is Adaptive's locality shift: content appears in a region the
	// tier does not hold and a leaf population for it arrives.
	EvShift
	// EvCut cuts Resume's reload connection: once Rep chunks have applied,
	// with journal-trimming churn committed at the cut, or with Lost set in
	// the middle of chunk Rep's response.
	EvCut
	// EvBadTokens presents Resume's supplier a forged and a stale token.
	EvBadTokens
)

// Event is one step of a history.
type Event struct {
	Kind EventKind
	Rep  int    // replica index for session events; chunk index for EvCut
	Lost bool   // EvPoll/EvRetain: response discarded in flight
	Op   sim.Op // EvOp payload

	// W is the EvEdgeWrite payload (edge.go histories only).
	W EdgeWrite
}

func (e Event) String() string {
	lost := ""
	if e.Lost {
		lost = " (response lost)"
	}
	switch e.Kind {
	case EvOp:
		return "op: " + e.Op.String()
	case EvPoll:
		return fmt.Sprintf("poll r%d%s", e.Rep, lost)
	case EvRetain:
		return fmt.Sprintf("retain-poll r%d%s", e.Rep, lost)
	case EvPersist:
		return fmt.Sprintf("persist-drain r%d", e.Rep)
	case EvBadCookie:
		return fmt.Sprintf("poll r%d with corrupt cookie", e.Rep)
	case EvEnd:
		return fmt.Sprintf("sync_end r%d (server side)", e.Rep)
	case EvShift:
		return "locality shift: a leaf for content the tier does not hold"
	case EvCut:
		if e.Lost {
			return fmt.Sprintf("cut inside chunk %d", e.Rep)
		}
		return fmt.Sprintf("cut after chunk %d, churn at the cut", e.Rep)
	case EvBadTokens:
		return "forged and stale resume tokens"
	case EvEdgeWrite:
		return "edge " + e.W.String()
	case EvEdgeCrash:
		return "edge crash + WAL reopen"
	case EvEdgeReplay:
		return "edge replay pass"
	default:
		return fmt.Sprintf("event(%d)", int(e.Kind))
	}
}

// genHistory generates a Flat history, deterministically from its seed.
// Operation generation (sim.OpGen) and event-kind selection use independent
// streams so shrinking one does not perturb the other. Every history ends
// with one poll per replica so the final state is always
// convergence-checked.
func genHistory(cfg Config, hseed int64) []Event {
	gen := sim.NewOpGen(synthConfig(hseed, 0))
	rng := rand.New(rand.NewSource(hseed*2654435761 + 97))
	nReps := len(cfg.specList())
	events := make([]Event, 0, cfg.Steps+nReps)
	for i := 0; i < cfg.Steps; i++ {
		r := rng.Float64()
		rep := rng.Intn(nReps)
		switch {
		case r < 0.52:
			events = append(events, Event{Kind: EvOp, Op: gen.Next()})
		case r < 0.72:
			events = append(events, Event{Kind: EvPoll, Rep: rep})
		case r < 0.78:
			events = append(events, Event{Kind: EvPoll, Rep: rep, Lost: true})
		case r < 0.86:
			events = append(events, Event{Kind: EvPersist, Rep: rep})
		case r < 0.92:
			events = append(events, Event{Kind: EvRetain, Rep: rep, Lost: rng.Float64() < 0.3})
		case r < 0.96:
			events = append(events, Event{Kind: EvBadCookie, Rep: rep})
		default:
			events = append(events, Event{Kind: EvEnd, Rep: rep})
		}
	}
	for i := 0; i < nReps; i++ {
		events = append(events, Event{Kind: EvPoll, Rep: i})
	}
	return events
}

// genCheckpoints generates a wire-level history: operations, convergence
// checkpoints (EvPoll: polls themselves are driven autonomously by the
// supervisors) and server-side session ends for one of nReps replicas. A
// final checkpoint is appended.
func genCheckpoints(cfg Config, hseed, rngSeed int64, nReps int) []Event {
	gen := sim.NewOpGen(synthWireConfig(hseed))
	rng := rand.New(rand.NewSource(rngSeed))
	events := make([]Event, 0, cfg.Steps+1)
	for i := 0; i < cfg.Steps; i++ {
		r := rng.Float64()
		switch {
		case r < 0.72:
			events = append(events, Event{Kind: EvOp, Op: gen.Next()})
		case r < 0.92:
			events = append(events, Event{Kind: EvPoll})
		default:
			events = append(events, Event{Kind: EvEnd, Rep: rng.Intn(nReps)})
		}
	}
	return append(events, Event{Kind: EvPoll})
}

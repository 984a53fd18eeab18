package proto

import (
	"fmt"

	"filterdir/internal/ber"
)

// Control is an LDAP control attached to a message.
type Control struct {
	OID         string
	Criticality bool
	Value       []byte
}

// bodyLen is the content length of the control's SEQUENCE.
func (c Control) bodyLen() int {
	n := ber.TLVLen(len(c.OID))
	if c.Criticality {
		n += ber.TLVLen(1)
	}
	if c.Value != nil {
		n += ber.TLVLen(len(c.Value))
	}
	return n
}

func (c Control) append(dst []byte) []byte {
	dst = ber.AppendHeader(dst, ber.ClassUniversal, true, ber.TagSequence, c.bodyLen())
	dst = ber.AppendString(dst, ber.ClassUniversal, ber.TagOctetString, c.OID)
	if c.Criticality {
		dst = ber.AppendBool(dst, true)
	}
	if c.Value != nil {
		dst = ber.AppendTLV(dst, ber.ClassUniversal, false, ber.TagOctetString, c.Value)
	}
	return dst
}

func parseControls(data []byte) ([]Control, error) {
	rd := ber.NewReader(data)
	var out []Control
	for !rd.Empty() {
		seq, err := rd.ReadSequence()
		if err != nil {
			return nil, fmt.Errorf("control: %w", err)
		}
		oid, err := seq.ReadExpect(ber.ClassUniversal, ber.TagOctetString)
		if err != nil {
			return nil, err
		}
		c := Control{OID: bodyString(oid)}
		for !seq.Empty() {
			h, content, err := seq.Read()
			if err != nil {
				return nil, err
			}
			switch {
			case h.Is(ber.ClassUniversal, ber.TagBoolean):
				c.Criticality = len(content) == 1 && content[0] != 0
			case h.Is(ber.ClassUniversal, ber.TagOctetString):
				c.Value = content // the message owns its body, see decodeMessage
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// Control OIDs (private-enterprise arc chosen for this implementation).
const (
	// OIDReSyncRequest is attached to a search request to run the ReSync
	// protocol: value = SEQUENCE { mode ENUMERATED, cookie OCTET STRING }.
	OIDReSyncRequest = "1.3.6.1.4.1.55555.1.1"
	// OIDReSyncDone is attached to the final search-done of a ReSync
	// response: value = SEQUENCE { cookie OCTET STRING }.
	OIDReSyncDone = "1.3.6.1.4.1.55555.1.2"
	// OIDEntryChange labels an update PDU of a ReSync response: value =
	// SEQUENCE { action ENUMERATED, cookie OCTET STRING OPTIONAL, csn INTEGER
	// OPTIONAL, oldDN [0] OCTET STRING OPTIONAL }. An add carrying no cookie
	// (and so no csn) travels without it — an entry PDU with no entry-change
	// control is an add — so the PDUs of a content transfer, which the paper
	// ships "as add actions", are bare search entries. The action says
	// how to read the PDU's entry — add and modify carry the complete entry,
	// patch and move only the attributes to replace (see ChangeActionPatch,
	// ChangeActionMove), delete and retain the DN alone — so telling a patch
	// from an image costs no byte. The cookie appears on the last PDU of a
	// persist-mode batch, naming the sync point the replica reaches by
	// applying the batch; the csn rides beside it, echoing the master CSN the
	// batch syncs the consumer to (the signal an edge-writing replica uses to
	// retire pending ops). The old DN rides on a move alone; being tagged, it
	// leaves cookie and csn where they were.
	OIDEntryChange = "1.3.6.1.4.1.55555.1.3"
	// OIDEdgeWrite is attached to an update request forwarded up the
	// cascade by an edge-writing replica: value = SEQUENCE { opid OCTET
	// STRING }. The opid is the replica's durable op identifier; the master
	// dedups by it, making WAL replays after a crash exactly-once.
	OIDEdgeWrite = "1.3.6.1.4.1.55555.1.4"
	// OIDEdgeWriteDone is attached to the update response: value =
	// SEQUENCE { csn INTEGER, duplicate BOOLEAN }. The csn is the
	// master-assigned sequence number the origin replica matches against
	// its ReSync stream; duplicate reports the op id was already applied.
	OIDEdgeWriteDone = "1.3.6.1.4.1.55555.1.5"
	// OIDFiltersWatch is attached to a search request to subscribe to the
	// server's admission-filter generation: value = SEQUENCE { generation
	// INTEGER }. The server holds the operation open until its stored
	// filter set advances past the presented generation (0 = whatever
	// generation is current when the watch is established), then answers
	// the search-done carrying OIDFiltersChanged. A diverted supervisor
	// uses it to re-probe a tier the moment it widens, instead of waiting
	// out the retry timer.
	OIDFiltersWatch = "1.3.6.1.4.1.55555.1.8"
	// OIDFiltersChanged is attached to the search-done answering a filters
	// watch: value = SEQUENCE { generation INTEGER }, the server's current
	// filter generation.
	OIDFiltersChanged = "1.3.6.1.4.1.55555.1.9"
)

// NewFiltersWatchControl subscribes to the server's admission-filter
// generation (see OIDFiltersWatch).
func NewFiltersWatchControl(generation uint64) Control {
	var body []byte
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, int64(generation))
	return Control{OID: OIDFiltersWatch, Criticality: true, Value: ber.AppendSequence(nil, body)}
}

// ParseFiltersWatch decodes a filters-watch request control.
func ParseFiltersWatch(c Control) (generation uint64, err error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return 0, fmt.Errorf("filters watch control: %w", err)
	}
	n, err := seq.ReadInt()
	if err != nil {
		return 0, err
	}
	return uint64(n), nil
}

// NewFiltersChangedControl carries the server's current filter generation on
// the search-done answering a watch (see OIDFiltersChanged).
func NewFiltersChangedControl(generation uint64) Control {
	var body []byte
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, int64(generation))
	return Control{OID: OIDFiltersChanged, Value: ber.AppendSequence(nil, body)}
}

// ParseFiltersChanged decodes a filters-changed response control.
func ParseFiltersChanged(c Control) (generation uint64, err error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return 0, fmt.Errorf("filters changed control: %w", err)
	}
	n, err := seq.ReadInt()
	if err != nil {
		return 0, err
	}
	return uint64(n), nil
}

// ReSyncMode is the synchronization mode requested by a replica.
type ReSyncMode int

// ReSync modes per Section 5.2.
const (
	ReSyncModePoll ReSyncMode = iota + 1
	ReSyncModePersist
	ReSyncModeSyncEnd
	// ReSyncModeRetain requests the incomplete-history synchronization of
	// equation (3): unchanged entries are conveyed with retain actions.
	ReSyncModeRetain
)

func (m ReSyncMode) String() string {
	switch m {
	case ReSyncModePoll:
		return "poll"
	case ReSyncModePersist:
		return "persist"
	case ReSyncModeSyncEnd:
		return "sync_end"
	case ReSyncModeRetain:
		return "retain"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ReSyncRequest is the decoded reSyncControl = (mode, cookie).
type ReSyncRequest struct {
	Mode   ReSyncMode
	Cookie string
}

// NewReSyncRequestControl builds the request control.
func NewReSyncRequestControl(mode ReSyncMode, cookie string) Control {
	var body []byte
	body = ber.AppendEnum(body, int64(mode))
	body = ber.AppendString(body, ber.ClassUniversal, ber.TagOctetString, cookie)
	return Control{OID: OIDReSyncRequest, Criticality: true, Value: ber.AppendSequence(nil, body)}
}

// ParseReSyncRequest decodes the control value.
func ParseReSyncRequest(c Control) (ReSyncRequest, error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return ReSyncRequest{}, fmt.Errorf("resync control: %w", err)
	}
	mode, err := seq.ReadEnum()
	if err != nil {
		return ReSyncRequest{}, err
	}
	cookie, err := seq.ReadString()
	if err != nil {
		return ReSyncRequest{}, err
	}
	return ReSyncRequest{Mode: ReSyncMode(mode), Cookie: cookie}, nil
}

// NewReSyncDoneControl carries the session cookie back on the search-done,
// plus the master CSN the exchange syncs the consumer to (0 omits it, for
// engines without a CSN watermark).
func NewReSyncDoneControl(cookie string, fullReload bool, csn uint64) Control {
	var body []byte
	body = ber.AppendString(body, ber.ClassUniversal, ber.TagOctetString, cookie)
	body = ber.AppendBool(body, fullReload)
	if csn > 0 {
		body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, int64(csn))
	}
	return Control{OID: OIDReSyncDone, Value: ber.AppendSequence(nil, body)}
}

// ParseReSyncDone decodes the done control; csn is 0 when the server did
// not stamp one.
func ParseReSyncDone(c Control) (cookie string, fullReload bool, csn uint64, err error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return "", false, 0, fmt.Errorf("resync done control: %w", err)
	}
	if cookie, err = seq.ReadString(); err != nil {
		return "", false, 0, err
	}
	if fullReload, err = seq.ReadBool(); err != nil {
		return "", false, 0, err
	}
	if !seq.Empty() {
		n, err := seq.ReadInt()
		if err != nil {
			return "", false, 0, err
		}
		csn = uint64(n)
	}
	return cookie, fullReload, csn, nil
}

// ChangeAction is the client action carried on an update PDU.
type ChangeAction int

// Update actions per Section 5.2.
const (
	ChangeActionAdd ChangeAction = iota + 1
	ChangeActionDelete
	ChangeActionModify
	ChangeActionRetain
	// ChangeActionPatch is a modify whose PDU carries, instead of the whole
	// entry, exactly the attributes to replace in the held one: each with its
	// complete current value set, an empty set for an attribute now absent.
	ChangeActionPatch
	// ChangeActionMove is a patch under the entry's new DN whose control
	// carries the DN it had: the consumer re-keys the entry it holds there,
	// then applies the patch.
	ChangeActionMove
)

func (a ChangeAction) String() string {
	switch a {
	case ChangeActionAdd:
		return "add"
	case ChangeActionDelete:
		return "delete"
	case ChangeActionModify:
		return "modify"
	case ChangeActionRetain:
		return "retain"
	case ChangeActionPatch:
		return "patch"
	case ChangeActionMove:
		return "move"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// tagOldDN is the context tag of a move's old DN in the entry-change control.
const tagOldDN = 0

// EntryChange is the content of an entry-change control (OIDEntryChange). A
// non-empty Cookie marks the PDU as the last of a pushed batch: applying
// everything up to and including it brings the replica to the named sync
// point. CSN (0 to omit) rides only with a cookie, echoing the master CSN the
// batch syncs the consumer to. OldDN is set on a move, and only there.
type EntryChange struct {
	Action ChangeAction
	Cookie string
	CSN    uint64
	OldDN  string
}

// Control encodes the entry-change control.
func (ec EntryChange) Control() Control {
	var body []byte
	body = ber.AppendEnum(body, int64(ec.Action))
	if ec.Cookie != "" {
		body = ber.AppendString(body, ber.ClassUniversal, ber.TagOctetString, ec.Cookie)
		if ec.CSN > 0 {
			body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, int64(ec.CSN))
		}
	}
	if ec.OldDN != "" {
		body = ber.AppendString(body, ber.ClassContext, tagOldDN, ec.OldDN)
	}
	return Control{OID: OIDEntryChange, Value: ber.AppendSequence(nil, body)}
}

// ParseEntryChange decodes an entry-change control; Cookie is "" (and CSN 0)
// except on the final PDU of a pushed batch. An action this package does not
// define, a move without its old DN and an old DN on anything but a move are
// errors: what the consumer would do with them is undefined.
func ParseEntryChange(c Control) (EntryChange, error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return EntryChange{}, fmt.Errorf("entry change control: %w", err)
	}
	a, err := seq.ReadEnum()
	if err != nil {
		return EntryChange{}, err
	}
	ec := EntryChange{Action: ChangeAction(a)}
	if ec.Action < ChangeActionAdd || ec.Action > ChangeActionMove {
		return EntryChange{}, fmt.Errorf("entry change control: unknown action %d", a)
	}
	if h, err := seq.Peek(); err == nil && h.Is(ber.ClassUniversal, ber.TagOctetString) {
		if ec.Cookie, err = seq.ReadString(); err != nil {
			return EntryChange{}, err
		}
	}
	if h, err := seq.Peek(); err == nil && h.Is(ber.ClassUniversal, ber.TagInteger) {
		n, err := seq.ReadInt()
		if err != nil {
			return EntryChange{}, err
		}
		ec.CSN = uint64(n)
	}
	if h, err := seq.Peek(); err == nil && h.Is(ber.ClassContext, tagOldDN) {
		old, err := seq.ReadExpect(ber.ClassContext, tagOldDN)
		if err != nil {
			return EntryChange{}, err
		}
		ec.OldDN = string(old)
	}
	if (ec.Action == ChangeActionMove) != (ec.OldDN != "") {
		return EntryChange{}, fmt.Errorf("entry change control: %s with old DN %q", ec.Action, ec.OldDN)
	}
	return ec, nil
}

// NewEdgeWriteControl marks an update request as an edge-originated write
// forwarded from a replica, carrying the replica's durable op id.
func NewEdgeWriteControl(opID string) Control {
	var body []byte
	body = ber.AppendString(body, ber.ClassUniversal, ber.TagOctetString, opID)
	return Control{OID: OIDEdgeWrite, Criticality: true, Value: ber.AppendSequence(nil, body)}
}

// ParseEdgeWrite decodes an edge-write request control.
func ParseEdgeWrite(c Control) (opID string, err error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return "", fmt.Errorf("edge write control: %w", err)
	}
	return seq.ReadString()
}

// NewEdgeWriteDoneControl carries the sequencer's answer back on the
// update response: the assigned CSN and whether the op id was a replay.
func NewEdgeWriteDoneControl(csn uint64, duplicate bool) Control {
	var body []byte
	body = ber.AppendInt(body, ber.ClassUniversal, ber.TagInteger, int64(csn))
	body = ber.AppendBool(body, duplicate)
	return Control{OID: OIDEdgeWriteDone, Value: ber.AppendSequence(nil, body)}
}

// ParseEdgeWriteDone decodes an edge-write response control.
func ParseEdgeWriteDone(c Control) (csn uint64, duplicate bool, err error) {
	rd := ber.NewReader(c.Value)
	seq, err := rd.ReadSequence()
	if err != nil {
		return 0, false, fmt.Errorf("edge write done control: %w", err)
	}
	n, err := seq.ReadInt()
	if err != nil {
		return 0, false, err
	}
	if duplicate, err = seq.ReadBool(); err != nil {
		return 0, false, err
	}
	return uint64(n), duplicate, nil
}

package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mavr/internal/detrand"
)

// Record is one canonical trace line. Field order (= JSON key order) is
// part of the wire format: encoding/json emits struct fields in
// declaration order, so a trace is byte-stable as long as this struct
// is.
type Record struct {
	// T is the simulated time of the event in nanoseconds.
	T int64 `json:"t"`
	// Kind labels the event: boot, randomized, failure-detected,
	// reflash, fault, inject, seq-gap, link-gap, garbage, frame-error,
	// heartbeat, raw-imu, param-echo, corrupt-drop, link-outage,
	// checkpoint, verdict.
	Kind string `json:"kind"`
	// Note carries the human-readable detail (board event notes,
	// injection descriptions).
	Note string `json:"note,omitempty"`
	// N is a counter delta for monitor events.
	N int `json:"n,omitempty"`
	// Payload is the FNV-1a digest of an injected packet's bytes — it
	// pins the exact attack payload into the trace, so any change to an
	// attack constant diverges here even before behaviour changes.
	Payload string `json:"payload,omitempty"`
	// Counters is set on checkpoint records.
	Counters *Counters `json:"counters,omitempty"`
	// Verdict is set on the final record.
	Verdict *Verdict `json:"verdict,omitempty"`
}

// Counters is a snapshot of every monitor counter plus the defense
// epoch, taken at each checkpoint and embedded in the verdict.
type Counters struct {
	Pulses      int   `json:"pulses"`
	SeqGaps     int   `json:"seqGaps"`
	LinkGaps    int   `json:"linkGaps"`
	Garbage     int   `json:"garbage"`
	Heartbeats  int   `json:"heartbeats"`
	FrameErrors int   `json:"frameErrors"`
	RawIMUs     int   `json:"rawImus"`
	ParamEchoes int   `json:"paramEchoes"`
	MaxSilence  int64 `json:"maxSilenceNs"`
	// Epoch is the number of randomizations performed so far (0 on
	// boards without a master): the re-randomization epoch counter.
	Epoch int `json:"epoch"`
	// LinkOutages, CorruptDrops and MaxLinkSilence are the chaos-era
	// link-degradation counters. They are omitempty — always zero
	// without a chaos schedule — so pre-chaos golden traces stay
	// byte-identical.
	LinkOutages    int   `json:"linkOutages,omitempty"`
	CorruptDrops   int   `json:"corruptDrops,omitempty"`
	MaxLinkSilence int64 `json:"maxLinkSilenceNs,omitempty"`
}

// Verdict is the scenario's outcome: the ground station's detection
// verdict, the attack's effect on the vehicle, and the master's
// lifetime statistics.
type Verdict struct {
	// Compromised is the monitor's CompromiseDetected verdict at the
	// configured silence threshold.
	Compromised bool `json:"compromised"`
	// VehicleSilent is the silence-only signal.
	VehicleSilent bool `json:"vehicleSilent"`
	// AttackLanded reports whether every non-probe injection's write is
	// present in the vehicle's data space at scenario end.
	AttackLanded bool `json:"attackLanded"`
	// BoardAlive reports whether the application processor still runs.
	BoardAlive bool `json:"boardAlive"`
	// GyroCfg is the gyro configuration byte — the paper's
	// demonstration write target.
	GyroCfg byte `json:"gyroCfg"`
	// FailuresDetected, Reflashes and VerifyRejections are master
	// counters (zero without a master).
	FailuresDetected int `json:"failuresDetected"`
	Reflashes        int `json:"reflashes"`
	VerifyRejections int `json:"verifyRejections"`
	// Health is the monitor's graded gcs.Health verdict
	// (ok/degraded/link-dead/vehicle-dead/compromised). Only populated
	// when the scenario runs a chaos schedule, so pre-chaos golden
	// traces stay byte-identical.
	Health string `json:"health,omitempty"`
	// Final is the monitor state at scenario end.
	Final Counters `json:"final"`
}

// AppendTrace writes records as canonical JSONL.
func AppendTrace(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TraceString renders records as the canonical JSONL byte stream.
func TraceString(recs []Record) string {
	var sb strings.Builder
	if err := AppendTrace(&sb, recs); err != nil {
		// json.Marshal of Record cannot fail (no unsupported types) and
		// strings.Builder never errors.
		panic(err)
	}
	return sb.String()
}

// ParseTrace reads canonical JSONL back into records.
func ParseTrace(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(txt), &rec); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// TraceDigest is the FNV-1a 64-bit digest of the canonical trace bytes
// — the fingerprint mavr-scengen prints per seed, making a whole sweep
// comparable with one line per scenario.
func TraceDigest(recs []Record) string {
	return fnvDigest([]byte(TraceString(recs)))
}

// fnvDigest is the FNV-1a 64-bit hash of b, hex-encoded — the payload
// fingerprint embedded in inject records.
func fnvDigest(b []byte) string {
	return fmt.Sprintf("%016x", detrand.FNV64(b))
}

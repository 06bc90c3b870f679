// Package armory is the fleet-scale firmware randomization and
// verification service: the production form of the MAVR defense's
// host-side half. The paper's diversity argument (§V-D, §VIII-B) only
// holds if every vehicle in a fleet flies its own permutation — one
// leaked layout must never generalize — so provisioning firmware for a
// fleet is a batch problem: randomize the same base image once per
// vehicle, statically verify every outcome before it can be flashed,
// and guarantee fleet-wide permutation uniqueness.
//
// The Service runs a fixed worker pool over a five-stage pipeline:
//
//	submit → preprocess → permute → patch → verify → sign
//
// with three pieces of shared state:
//
//   - A content-addressed base cache (cache.go): submissions are keyed
//     by the SHA-256 of their bytes, and the expensive per-base work —
//     ELF parsing, core.Preprocess, and staticverify.NewBase's CFG
//     recovery and gadget census — happens once per distinct base
//     image under a single-flight guard. Verifying an artifact of a
//     known base is staticverify.Base.Verify: the patch diff decides,
//     and a clean artifact's report reuses the base's translated CFG
//     and analysis, an order of magnitude cheaper than cold
//     verification.
//
//   - A fleet permutation ledger (ledger.go): every issued permutation
//     is recorded per canonical base digest, and no two holders
//     (vehicle, epoch) are ever issued the same permutation of the
//     same base. Permutations derive deterministically from
//     (base digest, vehicle, epoch, attempt), so a replayed request is
//     idempotent — same artifact, re-issued, never double-counted —
//     while a digest collision with a different holder redraws with
//     the next attempt in the chain.
//
//   - An HMAC-SHA256 signer (sign.go): artifacts are signed over
//     (base digest, permutation digest, artifact digest) so the
//     flashing side — board.Master via its Provision hook — can reject
//     tampered or misrouted images without re-verifying.
//
// server.go exposes the service over HTTP (POST /randomize,
// GET /report/<digest>, GET /metrics, GET /healthz) and client.go is
// the matching client used by cmd/mavr-fleetd's -armory mode and
// cmd/mavr-randomize's client mode. cmd/mavr-armory hosts the daemon
// and a self-contained -soak mode CI uses to prove batch uniqueness.
//
// wire.go holds the artifact format both ends share. A 200 answer to
// POST /randomize is the artifact's JSON head on one line — digests,
// holder, permutation, signature and report, everything but the image
// — then a newline, then the image's raw bytes:
//
//	{"base_digest":"…",…,"report":{…}}\n<image bytes>
//
// Content-Length covers head and image, so the client reads the body
// by its declared length, unmarshals only the head and takes the rest
// as the image; the server reads an upload the same way and answers
// 413, unread, to a declared length above MaxImageBytes. Either side
// grows its buffer as bytes arrive, so a declared length pins no
// memory the peer has not sent. Every body either side reads is
// bounded, and mavr-armory's server times out idle and slow peers. Error bodies and GET /report/ are
// plain JSON. The client re-hashes the image and the permutation,
// checks the holder and verifies the signature before it returns an
// artifact.
//
// Everything outside server.go is deterministic (no wall clock, no
// global rand) and checked by the determinism vettool; the HTTP server
// file alone is wallclock-tagged.
package armory

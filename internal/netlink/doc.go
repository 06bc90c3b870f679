// Package netlink is the UDP telemetry fabric between simulated UAVs
// and ground stations: the network-facing realization of the paper's
// Fig. 3 attack vector, where a (possibly malicious) ground station
// talks MAVLink to the vehicle over a real link instead of an
// in-process byte shuttle.
//
// The layer has two parts:
//
//   - A tiny datagram protocol (proto.go): each UDP datagram carries a
//     17-byte header — vehicle system id, per-direction link sequence
//     number and the vehicle's simulated clock — followed by zero or
//     more complete telemetry records, cut by gcs.StreamSplitter. A lost
//     datagram then loses whole records and the ground station's stream
//     parser never desynchronizes: loss shows up as pulse sequence gaps
//     (gcs.Monitor.LinkGaps), not garbage. Sessions are keyed by peer
//     address + system id; liveness is heartbeat-based (any datagram
//     refreshes the session, and the fleet's read loop expires idle
//     ones).
//
//   - A fleet server (fleet.go) and ground-station client (client.go):
//     Fleet hosts N independent board.System vehicles, each advanced by
//     its own goroutine at a configurable multiple of real time, and
//     serves any number of GCS clients over one UDP socket. Every
//     datagram, either way, draws its fate from one seeded schedule,
//     chaos.Config.Fate, a pure function of (seed, link, sequence
//     number): partition and corruption both ways, loss of uplink
//     data, and loss, duplication and delay of the downlink. So
//     stealth-detection experiments over a lossy link stay
//     reproducible. Client drives a gcs.Monitor (in link-loss-tolerant
//     mode) from the received record stream and can inject arbitrary —
//     including oversize attack — frames on the uplink.
//
// Each socket has one loop. A Client is one goroutine, its receive
// loop, which also sends the keepalive hellos; SendFrame encodes and
// writes on its caller's goroutine. A Fleet runs its read loop (uplink
// demultiplexing and session expiry), the sender that releases delayed
// datagrams, and one supervised driver goroutine per vehicle.
//
// cmd/mavr-fleetd wraps Fleet as a daemon; cmd/mavr-attack -connect
// points the paper's attack generator at a fleetd socket.
package netlink

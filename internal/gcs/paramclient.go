package gcs

import (
	"errors"
	"time"

	"mavr/internal/mavlink"
)

// ParamClient implements the ground-station side of the MAVLink
// parameter protocol against the vehicle: send PARAM_SET, wait for the
// PARAM_VALUE acknowledgement, retransmit on timeout.
type ParamClient struct {
	g *GroundStation
	// Timeout before a retransmission.
	Timeout time.Duration
	// Retries bounds the retransmissions per request.
	Retries int
}

// NewParamClient returns a client with ArduPilot-style defaults.
func NewParamClient(g *GroundStation) *ParamClient {
	return &ParamClient{g: g, Timeout: 300 * time.Millisecond, Retries: 3}
}

// ErrParamTimeout is returned when every retransmission went
// unacknowledged.
var ErrParamTimeout = errors.New("gcs: parameter write unacknowledged")

// Set writes a named parameter and waits for the matching echo,
// retransmitting per the protocol. It returns the acknowledged value.
func (c *ParamClient) Set(name string, value float32) (*mavlink.ParamValue, error) {
	for attempt := 0; attempt <= c.Retries; attempt++ {
		before := c.g.Mon.ParamEchoes
		c.g.SetParam(name, value)
		deadline := c.g.Sys.Now() + c.Timeout
		for c.g.Sys.Now() < deadline {
			if err := c.g.Step(FeedStep); err != nil {
				return nil, err
			}
			if c.g.Mon.ParamEchoes > before &&
				c.g.Mon.LastEcho != nil && c.g.Mon.LastEcho.ParamID == name {
				return c.g.Mon.LastEcho, nil
			}
		}
	}
	return nil, ErrParamTimeout
}

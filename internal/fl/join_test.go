package fl

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestNodeRefusesNegativeJoinSizes: a join's sizes are input. Clients
// declaring TrainSize 8, 8 and −16 would cancel the |D_k| start's weight
// total to zero and hand every client a non-finite classifier, so the root
// (flat or tree) and an aggregator's child table each refuse the forged
// declaration with a msgErr naming the field.
func TestNodeRefusesNegativeJoinSizes(t *testing.T) {
	forged := WireJoin{ID: 2, TrainSize: -16}
	clientJoin := &wireMsg{kind: msgJoin, name: "stub", ints: forged.AppendInts(nil)}
	for _, tc := range []struct {
		name  string
		serve func(ctx context.Context, ln transport.Listener) error
		join  []byte
	}{
		{"flat root", func(ctx context.Context, ln transport.Listener) error {
			_, err := NewServerNode(&stubWire{}, NodeConfig{Config: Config{Rounds: 1, Seed: 1}, Clients: 3}).Serve(ctx, ln)
			return err
		}, appendMsg(nil, clientJoin, nil)},
		{"tree root", func(ctx context.Context, ln transport.Listener) error {
			_, err := NewServerNode(&stubWire{}, NodeConfig{Config: Config{Rounds: 1, Seed: 1}, Clients: 3, Aggregators: 2}).Serve(ctx, ln)
			return err
		}, encodeTreeJoin(1, 1, 3, []WireJoin{{ID: 1, TrainSize: 8}, forged}, "stub", nil)},
		{"aggregator", func(ctx context.Context, ln transport.Listener) error {
			return NewAggregatorNode(&stubWire{}, AggregatorConfig{Index: 1, Aggregators: 2, Clients: 3,
				Dialer: func(ctx context.Context, _ uint64) (transport.Conn, error) {
					<-ctx.Done()
					return nil, ctx.Err()
				}}).Run(ctx, ln)
		}, appendMsg(nil, clientJoin, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			tr := transport.NewInproc(transport.Options{})
			ln, err := tr.Listen("srv")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- tc.serve(ctx, ln) }()
			defer func() {
				cancel()
				<-served
			}()
			conn, err := tr.Dial(ctx, "srv")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			p := &testPeer{t: t, conn: conn}
			if _, err := conn.Send(tc.join); err != nil {
				t.Fatal(err)
			}
			if m := p.expect(msgErr); !strings.Contains(m.name, "TrainSize -16") {
				t.Fatalf("refusal %q does not name TrainSize -16", m.name)
			}
		})
	}
}

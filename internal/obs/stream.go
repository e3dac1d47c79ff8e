package obs

// StreamEvent is one /v1/watch payload: a closed span (lifecycle
// marks are spans of kind "mark").
type StreamEvent struct {
	Type string     `json:"type"`
	Span SpanRecord `json:"span"`
}

// Subscription is one watch client's queue. Events are delivered on C
// strictly in publish order; if the client falls behind its buffer the
// tracer drops the event, counts it in WatchDrops and closes C — the
// backpressure policy is drop-and-disconnect, never block the loop.
type Subscription struct {
	C    <-chan StreamEvent
	t    *Tracer
	ch   chan StreamEvent
	dead bool
}

// Subscribe registers a watch subscription with the given buffer
// (64 when buf <= 0).
func (t *Tracer) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	sub := &Subscription{t: t, ch: make(chan StreamEvent, buf)}
	sub.C = sub.ch
	t.mu.Lock()
	t.subs = append(t.subs, sub)
	t.mu.Unlock()
	return sub
}

// Close detaches the subscription and closes its channel. Safe to
// call twice, and after the tracer already dropped the subscriber.
func (sub *Subscription) Close() {
	sub.t.mu.Lock()
	defer sub.t.mu.Unlock()
	if sub.dead {
		return
	}
	sub.t.detach(sub)
}

// detach removes sub and closes its channel. Callers hold t.mu — all
// sends also happen under t.mu, so close never races a send.
func (t *Tracer) detach(sub *Subscription) {
	sub.dead = true
	for i, s := range t.subs {
		if s == sub {
			t.subs = append(t.subs[:i], t.subs[i+1:]...)
			break
		}
	}
	close(sub.ch)
}

// publish fans a closed span out to subscribers and OnClose
// observers. A full subscriber is dropped and disconnected rather
// than waited on.
func (t *Tracer) publish(rec *SpanRecord) {
	t.mu.Lock()
	if len(t.subs) > 0 {
		ev := StreamEvent{Type: "span", Span: *rec}
		for i := 0; i < len(t.subs); {
			sub := t.subs[i]
			select {
			case sub.ch <- ev:
				i++
			default:
				t.drops.Add(1)
				t.detach(sub)
			}
		}
	}
	for _, fn := range t.onClose {
		fn(*rec)
	}
	t.mu.Unlock()
}

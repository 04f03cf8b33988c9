package core

import (
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/transaction"
)

// MessageEndpoint adapts a link-layer peer to the transaction layer: it
// packs each outgoing message into a flit payload and unpacks arriving
// payloads to a handler. One message per flit keeps the Fig. 5 failure
// scenarios deterministic — the script controls exactly which message a
// dropped flit carried.
type MessageEndpoint struct {
	Peer *link.Peer
	// OnMessage receives each unpacked message in delivery order.
	OnMessage func(transaction.Message)
}

// NewMessageEndpoint wraps peer and installs the unpacking deliver hook.
func NewMessageEndpoint(peer *link.Peer, onMessage func(transaction.Message)) *MessageEndpoint {
	ep := &MessageEndpoint{Peer: peer, OnMessage: onMessage}
	peer.Deliver = ep.deliver
	return ep
}

// Send packs one message into a flit and submits it.
func (ep *MessageEndpoint) Send(m transaction.Message) {
	payload := make([]byte, flit.PayloadSize)
	transaction.Pack(payload, []transaction.Message{m})
	ep.Peer.Submit(payload)
}

func (ep *MessageEndpoint) deliver(p []byte) {
	if ep.OnMessage == nil {
		return
	}
	for _, m := range transaction.Unpack(p) {
		ep.OnMessage(m)
	}
}

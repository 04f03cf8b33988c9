package link

// Stats counts link-layer events at one peer. All counters are cumulative
// over the peer's lifetime.
type Stats struct {
	// Transmit side.
	FlitsSent       uint64 // every flit put on the wire, incl. control and replays
	DataFlitsSent   uint64 // first transmissions of data flits
	AckFlitsSent    uint64 // standalone ACK control flits
	NakFlitsSent    uint64 // standalone NAK control flits
	PiggybackedAcks uint64 // data flits whose FSN carried an AckNum
	Retransmissions uint64 // data flits re-sent by go-back-N rounds
	TimeoutRetries  uint64 // go-back-N rounds triggered by the retry timer

	// Receive side.
	FlitsReceived       uint64
	FecCorrectedFlits   uint64 // flits repaired by link FEC
	FecCorrectedSymbols uint64 // total symbols repaired
	FecUncorrectable    uint64 // flits the FEC flagged as uncorrectable
	CrcErrors           uint64 // endpoint CRC/ISN mismatches on data flits
	ControlCrcErrors    uint64 // corrupted control flits discarded
	GapsDetected        uint64 // explicit-FSN mismatches proving a missing flit
	DuplicatesDropped   uint64 // stale explicit-FSN flits discarded at link level
	UnverifiedDelivered uint64 // CXL blind spot: AckNum-carrying flits forwarded without a sequence check
	UnverifiedDiscarded uint64 // AckNum-carrying flits dropped while awaiting replay
	Delivered           uint64 // payloads handed to the upper layer
	AcksReceived        uint64
	NaksReceived        uint64
	GoBackNRounds       uint64 // NAK-triggered replay rounds
}

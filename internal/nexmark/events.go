// Package nexmark provides a Nexmark-style event generator and the six
// benchmark queries used in the CAPSys evaluation (§6.1): Q1-sliding,
// Q2-join, Q3-inf, Q4-join, Q5-aggregate and Q6-session. Q1, Q2, Q4, Q5 and
// Q6 correspond to Nexmark queries Q5, Q8, Q3, Q6 and Q11 respectively;
// Q3-inf is the image-inference pipeline from the Crayfish study.
//
// The generator produces the standard Nexmark auction-site event mix
// (persons, auctions, bids) from a deterministic PRNG, so experiments are
// reproducible. Query definitions carry the logical dataflow graph, default
// parallelism (as assigned by DS2 for the paper's 16-slot reference
// cluster), per-operator unit resource costs (as measured by the CAPSys
// profiling phase), and the target input rate that saturates the reference
// cluster.
package nexmark

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"capsys/internal/engine"
)

// EventKind discriminates generated events.
type EventKind int

const (
	// PersonEvent announces a new bidder/seller registration.
	PersonEvent EventKind = iota
	// AuctionEvent opens a new auction.
	AuctionEvent
	// BidEvent places a bid on an open auction.
	BidEvent
)

func (k EventKind) String() string {
	switch k {
	case PersonEvent:
		return "person"
	case AuctionEvent:
		return "auction"
	case BidEvent:
		return "bid"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Person is a new account registration.
type Person struct {
	ID    int64
	Name  string
	Email string
	City  string
	State string
	// Timestamp is the event time in milliseconds.
	Timestamp int64
}

// Auction opens an item for bidding.
type Auction struct {
	ID         int64
	ItemName   string
	InitialBid int64
	Reserve    int64
	Seller     int64
	Category   int
	Timestamp  int64
	// Expires is the auction close time in milliseconds.
	Expires int64
}

// Bid is an offer on an auction.
type Bid struct {
	Auction   int64
	Bidder    int64
	Price     int64
	Timestamp int64
}

// The three event structs travel as engine.Record values, so under the
// network transport they cross process boundaries: each registers the codec
// that lays its fields out in declaration order (integers as varints,
// strings length-prefixed). A new field is appended to the struct's Append
// and Decode together — both ends of a cluster run the same build.
func init() {
	engine.RegisterValueCodec(engine.WireTagUser+0, Person{}, engine.ValueCodec{
		Append: func(dst []byte, v any) []byte {
			p := v.(Person)
			dst = binary.AppendVarint(dst, p.ID)
			dst = engine.AppendWireString(dst, p.Name)
			dst = engine.AppendWireString(dst, p.Email)
			dst = engine.AppendWireString(dst, p.City)
			dst = engine.AppendWireString(dst, p.State)
			return binary.AppendVarint(dst, p.Timestamp)
		},
		Decode: func(r *engine.WireReader) any {
			return Person{ID: r.Varint(), Name: r.Str(), Email: r.Str(), City: r.Str(), State: r.Str(), Timestamp: r.Varint()}
		},
	})
	engine.RegisterValueCodec(engine.WireTagUser+1, Auction{}, engine.ValueCodec{
		Append: func(dst []byte, v any) []byte {
			a := v.(Auction)
			dst = binary.AppendVarint(dst, a.ID)
			dst = engine.AppendWireString(dst, a.ItemName)
			for _, x := range [...]int64{a.InitialBid, a.Reserve, a.Seller, int64(a.Category), a.Timestamp, a.Expires} {
				dst = binary.AppendVarint(dst, x)
			}
			return dst
		},
		Decode: func(r *engine.WireReader) any {
			return Auction{ID: r.Varint(), ItemName: r.Str(), InitialBid: r.Varint(), Reserve: r.Varint(),
				Seller: r.Varint(), Category: int(r.Varint()), Timestamp: r.Varint(), Expires: r.Varint()}
		},
	})
	engine.RegisterValueCodec(engine.WireTagUser+2, Bid{}, engine.ValueCodec{
		Append: func(dst []byte, v any) []byte {
			b := v.(Bid)
			for _, x := range [...]int64{b.Auction, b.Bidder, b.Price, b.Timestamp} {
				dst = binary.AppendVarint(dst, x)
			}
			return dst
		},
		Decode: func(r *engine.WireReader) any {
			return Bid{Auction: r.Varint(), Bidder: r.Varint(), Price: r.Varint(), Timestamp: r.Varint()}
		},
	})
}

// Event is one element of the generated stream; exactly one of the payload
// pointers is non-nil, matching Kind.
type Event struct {
	Kind    EventKind
	Person  *Person
	Auction *Auction
	Bid     *Bid
	// Timestamp is the event time in milliseconds.
	Timestamp int64
}

// Standard Nexmark event mix: out of every 50 events, 1 person, 3 auctions,
// 46 bids.
const (
	personProportion  = 1
	auctionProportion = 3
	bidProportion     = 46
	totalProportion   = personProportion + auctionProportion + bidProportion
)

var (
	firstNames = []string{"Peter", "Paul", "Luke", "John", "Saul", "Vicky", "Kate", "Julie", "Sarah", "Deiter", "Walter"}
	lastNames  = []string{"Shultz", "Abrams", "Spencer", "White", "Bartels", "Walton", "Smith", "Jones", "Noris"}
	cities     = []string{"Phoenix", "Los Angeles", "San Francisco", "Boise", "Portland", "Bend", "Redmond", "Seattle", "Kent", "Cheyenne"}
	states     = []string{"AZ", "CA", "ID", "OR", "WA", "WY"}
	items      = []string{"vase", "lamp", "sofa", "chair", "table", "rug", "print", "clock", "mirror", "shelf"}
)

// Generator produces a deterministic Nexmark event stream.
type Generator struct {
	rng       *rand.Rand
	seq       int64
	now       int64 // event time in ms
	interval  int64 // ms between events
	numPeople int64
	numAucts  int64
}

// NewGenerator creates a generator seeded with seed, emitting events with
// the given event-time spacing in milliseconds (0 means 1ms).
func NewGenerator(seed int64, intervalMS int64) *Generator {
	if intervalMS <= 0 {
		intervalMS = 1
	}
	return &Generator{
		rng:      rand.New(rand.NewSource(seed)),
		interval: intervalMS,
	}
}

// Next produces the next event in the standard Nexmark mix.
func (g *Generator) Next() Event {
	slot := g.seq % totalProportion
	g.seq++
	g.now += g.interval
	switch {
	case slot < personProportion:
		p := g.nextPerson()
		return Event{Kind: PersonEvent, Person: p, Timestamp: p.Timestamp}
	case slot < personProportion+auctionProportion:
		a := g.nextAuction()
		return Event{Kind: AuctionEvent, Auction: a, Timestamp: a.Timestamp}
	default:
		b := g.nextBid()
		return Event{Kind: BidEvent, Bid: b, Timestamp: b.Timestamp}
	}
}

// NextPerson produces a person registration, advancing event time.
func (g *Generator) NextPerson() *Person {
	g.now += g.interval
	return g.nextPerson()
}

// NextAuction produces an auction opening, advancing event time.
func (g *Generator) NextAuction() *Auction {
	g.now += g.interval
	return g.nextAuction()
}

// NextBid produces a bid, advancing event time. The referenced person and
// auction populations grow alongside the bid stream (one new auction per 10
// bids, one new person per 25), keeping the key space realistic for
// bid-only pipelines — without this, every bid would reference auction 0
// and hash-partitioned downstream operators would collapse onto one task.
func (g *Generator) NextBid() *Bid {
	if g.numPeople == 0 || g.seq%25 == 0 {
		g.nextPerson()
	}
	if g.numAucts == 0 || g.seq%10 == 0 {
		g.nextAuction()
	}
	g.seq++
	g.now += g.interval
	return g.nextBid()
}

func (g *Generator) nextPerson() *Person {
	id := g.numPeople
	g.numPeople++
	name := firstNames[g.rng.Intn(len(firstNames))] + " " + lastNames[g.rng.Intn(len(lastNames))]
	return &Person{
		ID:        id,
		Name:      name,
		Email:     fmt.Sprintf("%s_%d@example.com", lastNames[g.rng.Intn(len(lastNames))], id),
		City:      cities[g.rng.Intn(len(cities))],
		State:     states[g.rng.Intn(len(states))],
		Timestamp: g.now,
	}
}

func (g *Generator) nextAuction() *Auction {
	id := g.numAucts
	g.numAucts++
	seller := int64(0)
	if g.numPeople > 0 {
		seller = g.rng.Int63n(g.numPeople)
	}
	initial := 1 + g.rng.Int63n(1000)
	return &Auction{
		ID:         id,
		ItemName:   items[g.rng.Intn(len(items))],
		InitialBid: initial,
		Reserve:    initial + g.rng.Int63n(1000),
		Seller:     seller,
		Category:   g.rng.Intn(10),
		Timestamp:  g.now,
		Expires:    g.now + 10_000 + g.rng.Int63n(60_000),
	}
}

func (g *Generator) nextBid() *Bid {
	auction := int64(0)
	if g.numAucts > 0 {
		auction = g.rng.Int63n(g.numAucts)
	}
	bidder := int64(0)
	if g.numPeople > 0 {
		bidder = g.rng.Int63n(g.numPeople)
	}
	return &Bid{
		Auction:   auction,
		Bidder:    bidder,
		Price:     1 + g.rng.Int63n(10_000),
		Timestamp: g.now,
	}
}

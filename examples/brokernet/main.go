// Brokernet: a distributed broker overlay in the style of Siena (paper §2).
// Five brokers form a tree; subscriptions propagate through the overlay with
// covering-based pruning, and published events are rejected as early as
// possible — a broker forwards an event over a link only when somebody in
// that direction wants it.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"genas"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sch := genas.MustSchema(
		genas.Attr("region", genas.MustIntegerDomain(0, 9)),
		genas.Attr("magnitude", genas.MustNumericDomain(0, 10)),
	)

	//        frankfurt
	//        /        \
	//   berlin        paris
	//   /    \
	// hamburg munich
	nw := genas.NewNetwork(sch)
	defer nw.Close()
	for _, n := range []string{"frankfurt", "berlin", "paris", "hamburg", "munich"} {
		if err := nw.AddNode(n); err != nil {
			return err
		}
	}
	for _, l := range [][2]string{
		{"frankfurt", "berlin"}, {"frankfurt", "paris"},
		{"berlin", "hamburg"}, {"berlin", "munich"},
	} {
		if err := nw.Connect(l[0], l[1]); err != nil {
			return err
		}
	}

	// Typed profiles, no parsing: the builder compiles to the same predicate
	// form the profile language produces.
	subscribe := func(node string, b *genas.ProfileBuilder) (*genas.Subscription, error) {
		p, err := b.Build(sch)
		if err != nil {
			return nil, err
		}
		return nw.Subscribe(node, p)
	}

	// Hamburg wants every strong quake; Munich only region 3; Paris has a
	// broad profile that covers Munich's (covering prunes the narrow route
	// on shared links).
	hamburg, err := subscribe("hamburg",
		genas.NewProfile("strong").Where("magnitude", genas.GE(6)))
	if err != nil {
		return err
	}
	munich, err := subscribe("munich",
		genas.NewProfile("region3").Where("region", genas.Eq(3)).Where("magnitude", genas.GE(4)))
	if err != nil {
		return err
	}
	paris, err := subscribe("paris",
		genas.NewProfile("broad").Where("magnitude", genas.GE(4)))
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(11))
	const events = 5000
	totalMatches := 0
	eb := genas.NewEvent(sch)
	for i := 0; i < events; i++ {
		ev, err := eb.
			Set("region", float64(rng.Intn(10))).
			Set("magnitude", rng.Float64()*10).
			Event()
		if err != nil {
			return err
		}
		eb.Reset()
		m, err := nw.Publish("frankfurt", ev)
		if err != nil {
			return err
		}
		totalMatches += m
	}

	drain := func(name string, sub *genas.Subscription) int {
		n := 0
		for {
			select {
			case <-sub.C():
				n++
			default:
				fmt.Printf("  %-8s received %d notifications (%d dropped by its full buffer)\n",
					name, n, sub.Dropped())
				return n
			}
		}
	}
	fmt.Printf("published %d events at frankfurt, %d profile matches\n", events, totalMatches)
	drain("hamburg", hamburg)
	drain("munich", munich)
	drain("paris", paris)

	st := nw.Stats()
	fmt.Printf("overlay: %d brokers, %d link crossings, %d crossings avoided by early rejection\n",
		st.Nodes, st.Messages, st.Filtered)
	fmt.Println("covering pruned munich's narrow route wherever paris' broad profile already flows")
	return nil
}

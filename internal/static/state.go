package static

import "disco/internal/addr"

// StateBreakdown itemizes one node's data-plane routing state in table
// entries, following the §5.2 accounting: "forwarding entries for landmarks
// and vicinities, name resolution entries on the landmark database,
// forwarding label mappings for our compact source route format in
// NDDisco, and the address mappings for Disco". S4 fills the same items,
// its cluster standing in for the vicinity.
type StateBreakdown struct {
	LandmarkRoutes int // shortest-path entries to every landmark
	VicinityRoutes int // entries for V(v), or S4's cluster routes
	LabelMappings  int // compact-source-route label → interface mappings
	Resolution     int // name-resolution entries (landmarks only)
	GroupAddrs     int // sloppy-group address entries (Disco only)
	OverlayLinks   int // overlay neighbor state (Disco only)
}

// Total returns the entry count.
func (b StateBreakdown) Total() int {
	return b.LandmarkRoutes + b.VicinityRoutes + b.LabelMappings + b.Resolution + b.GroupAddrs + b.OverlayLinks
}

// Bytes converts the breakdown to bytes under a name-size model (Fig. 7):
// landmark/vicinity/label entries are name+nexthop entries; resolution and
// group entries each store a name plus a full address.
func (b StateBreakdown) Bytes(m addr.SizeModel, avgAddr float64) float64 {
	plain := m.PlainEntryBytes()
	withAddr := float64(2*m.NameBytes) + avgAddr
	return float64(b.LandmarkRoutes+b.VicinityRoutes)*plain +
		float64(b.LabelMappings)*2 +
		float64(b.Resolution+b.GroupAddrs)*withAddr +
		float64(b.OverlayLinks)*plain
}

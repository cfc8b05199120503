package core

// Shortcut selects the route-shortening heuristic applied to a flow's first
// packet (§4.2 "Shortcutting heuristics", evaluated in Fig. 6). The
// protocol's stretch guarantees hold even with ShortcutNone; the heuristics
// only improve mean stretch.
type Shortcut int

const (
	// ShortcutNone routes strictly along s ⇝ (w ⇝) l_t ⇝ t.
	ShortcutNone Shortcut = iota
	// ShortcutToDestination follows a direct vicinity path as soon as the
	// packet passes through any node that knows one to the destination
	// (S4's heuristic [34]).
	ShortcutToDestination
	// ShortcutShorterPath uses the shorter of the forward route s → t and
	// the reversed route t → s, without To-Destination.
	ShortcutShorterPath
	// ShortcutNoPathKnowledge combines ShortcutToDestination with
	// ShortcutShorterPath. This is the paper's default ("All results
	// discussed subsequently use the No Path Knowledge optimization").
	ShortcutNoPathKnowledge
	// ShortcutUpDownStream lets every node along the route inspect the
	// listed route nodes and splice in a shorter vicinity path to the
	// farthest reachable one (requires carrying node identifiers on the
	// first packet).
	ShortcutUpDownStream
	// ShortcutPathKnowledge combines ShortcutUpDownStream with the reverse
	// route: the most aggressive heuristic (last row of Fig. 6).
	ShortcutPathKnowledge
)

// String returns the paper's name for the heuristic.
func (s Shortcut) String() string {
	switch s {
	case ShortcutNone:
		return "No Shortcutting"
	case ShortcutToDestination:
		return "To-Destination Shortcuts"
	case ShortcutShorterPath:
		return "Shorter{ReversePath, ForwardPath}"
	case ShortcutNoPathKnowledge:
		return "No Path Knowledge"
	case ShortcutUpDownStream:
		return "Up-Down Stream"
	case ShortcutPathKnowledge:
		return "Using Path Knowledge"
	default:
		return "Unknown"
	}
}

// AllShortcuts lists the heuristics in the order of the Fig. 6 table.
var AllShortcuts = []Shortcut{
	ShortcutNone,
	ShortcutToDestination,
	ShortcutShorterPath,
	ShortcutNoPathKnowledge,
	ShortcutUpDownStream,
	ShortcutPathKnowledge,
}

// usesToDest reports whether the mode applies To-Destination splicing.
func (s Shortcut) usesToDest() bool {
	return s == ShortcutToDestination || s == ShortcutNoPathKnowledge
}

// usesUpDown reports whether the mode applies Up-Down Stream splicing
// (which subsumes To-Destination: the destination is on the route list).
func (s Shortcut) usesUpDown() bool {
	return s == ShortcutUpDownStream || s == ShortcutPathKnowledge
}

// usesReverse reports whether the mode also evaluates the reversed route
// t → s and picks the shorter.
func (s Shortcut) usesReverse() bool {
	return s == ShortcutShorterPath || s == ShortcutNoPathKnowledge || s == ShortcutPathKnowledge
}

// withoutReverse strips the reverse-route component from the mode, for a
// forwarder that holds only the destination's address.
func (s Shortcut) withoutReverse() Shortcut {
	switch s {
	case ShortcutShorterPath:
		return ShortcutNone
	case ShortcutNoPathKnowledge:
		return ShortcutToDestination
	case ShortcutPathKnowledge:
		return ShortcutUpDownStream
	}
	return s
}

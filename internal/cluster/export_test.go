package cluster

// Route exposes rendezvous routing to the external tests, which predict
// the hashes a membership change moves.
func Route(hash string, workers []Worker) (Worker, bool) { return route(hash, workers) }

package service

import (
	"mrdspark/internal/obs"
	"mrdspark/internal/policy"
)

// Factory exposes the session's policy factory to the package's
// external tests, which interpose on the ClusterOps it is attached to.
func (a *Advisor) Factory() policy.Factory { return a.factory }

// Ops returns the advisor's ClusterOps implementer.
func (a *Advisor) Ops() policy.ClusterOps { return advOps{a} }

// Aggregator exposes the shared aggregator behind /metrics.
func (s *Server) Aggregator() *obs.Aggregator { return s.agg }

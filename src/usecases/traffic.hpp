// everest/usecases/traffic.hpp
//
// The traffic-modeling use case (paper §II-D): synthetic road network and
// floating-car-data (FCD) generator, Hidden-Markov-Model map matching of
// sparse and noisy GPS points onto the network (full offline Viterbi plus
// the ConDRust-decomposed streaming sub-kernels of Fig. 4) over an exact
// grid-bucket segment index, and a Gaussian Mixture model for traffic
// prediction with incomplete data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/dfg_executor.hpp"
#include "support/expected.hpp"
#include "support/rng.hpp"

namespace everest::usecases::traffic {

/// One directed road segment on a grid network, in km coordinates.
struct Segment {
  int id = -1;
  double x1 = 0, y1 = 0, x2 = 0, y2 = 0;
  double speed_limit_kmh = 50.0;

  [[nodiscard]] double length_km() const;
  /// Euclidean distance from a point to this segment.
  [[nodiscard]] double distance_km(double px, double py) const;
};

/// A grid road network of (n+1)^2 intersections with all grid edges.
/// Matching looks segments up by id, so `segments[i].id == i`.
struct RoadNetwork {
  std::vector<Segment> segments;
  int grid_n = 0;
  double cell_km = 1.0;
};

/// One map-matching candidate of a GPS point: a segment and its distance.
struct Candidate {
  int segment = -1;          // Segment::id
  double distance_km = 0.0;  // Segment::distance_km to the point
};

/// Exact k-nearest-segment search, built once per network and immutable
/// after construction, so concurrent queries need no lock.
///
/// Candidates are ordered by distance_km, then by segment id. The order is
/// total, so segments that tie exactly (those sharing an intersection do)
/// rank the same way on every platform and standard library. NaN distances,
/// which only points beyond ~1e307 km can produce, order last.
///
/// The index is a uniform bucket grid over the segments' bounding box in CSR
/// form: `start_[c]..start_[c+1]` delimits cell c's run of segment positions
/// in `items_`. A segment is listed in every cell its own bounding box
/// overlaps. The cell side comes from the extent and the segment count
/// (about one cell per segment), so there is nothing to tune. A query visits
/// rings of cells outward from the point's cell and stops only when the
/// nearest unvisited ring's lower bound exceeds the current k-th distance by
/// a margin relative to the coordinates' magnitude, which rounding cannot
/// close. So the result is what a full scan sorted in candidate order gives:
/// the same segments, in the same order, with bit-identical distances
/// (each is Segment::distance_km). Segment ids must be unique. A query costs
/// O(k) per segment it visits, so it suits small k.
class SegmentIndex {
public:
  explicit SegmentIndex(std::vector<Segment> segments);

  [[nodiscard]] const std::vector<Segment> &segments() const {
    return segments_;
  }

  /// The min(k, segment count) segments nearest to (px, py), in candidate
  /// order. Empty when k < 1 or the point is not finite.
  [[nodiscard]] std::vector<Candidate> nearest(double px, double py,
                                               int k) const;

private:
  std::vector<Segment> segments_;
  double x0_ = 0.0, y0_ = 0.0;  // lower-left corner of cell (0, 0)
  double cell_ = 1.0;           // cell side, km
  double scale_ = 0.0;          // coordinate magnitude, for the prune margin
  int nx_ = 1, ny_ = 1;         // cells per row and per column
  std::vector<std::size_t> start_;    // nx_ * ny_ + 1 offsets into items_
  std::vector<std::uint32_t> items_;  // segment positions, cell by cell
};

RoadNetwork make_grid_network(int n, double cell_km, std::uint64_t seed);

/// An FCD sample: position (km) and timestamp (s).
struct GpsPoint {
  double x = 0, y = 0, t = 0;
};

/// A generated vehicle trace with ground-truth segments.
struct FcdTrace {
  std::vector<GpsPoint> points;
  std::vector<int> true_segments;
};

/// Random walk along the network with GPS noise of `noise_km` std dev.
FcdTrace make_trace(const RoadNetwork &net, int num_points, double noise_km,
                    std::uint64_t seed);

/// HMM map-matching configuration (Newson-Krumme style).
struct MapMatchConfig {
  double sigma_gps_km = 0.05;   // emission: GPS noise scale
  double beta_transition = 2.0; // transition: tolerance to detours
  int max_candidates = 6;       // candidate segments per point
};

/// Full offline Viterbi map matching; returns one segment id per point.
/// InvalidArgument for an empty trace or network, max_candidates < 1, a
/// network whose ids are not its positions, or a point that is not finite.
support::Expected<std::vector<int>> map_match(const RoadNetwork &net,
                                              const std::vector<GpsPoint> &points,
                                              const MapMatchConfig &config = {});

/// Fraction of points matched to their true segment.
double matching_accuracy(const std::vector<int> &matched,
                         const std::vector<int> &truth);

/// Registers the Fig. 4 sub-kernels on a dfg NodeRegistry so the coordination
/// program can run them:
///   candidates(point)            -> [seg, dist]*max_candidates (pad -1)
///   emission_score(cands)        -> [seg, logp]*max_candidates
///   greedy_pick(scored)          -> [best_seg]
///   viterbi_step (fold, scored)  -> online DP state [seg, logp]*k
///   decode(state)                -> [best_seg_of_state]
/// Streams encode GpsPoints as records {x, y, t}; a point that is not finite
/// has no candidates (an all -1 record). The network is copied once into a
/// SegmentIndex that the candidates and viterbi_step operators share.
/// InvalidArgument, with nothing registered, for max_candidates < 1 or a
/// network whose ids are not its positions.
support::Status register_mapmatch_operators(runtime::NodeRegistry &registry,
                                            const RoadNetwork &net,
                                            const MapMatchConfig &config = {});

/// The Fig. 4 coordination program matching this registry.
std::string mapmatch_condrust_source();

/// Converts a trace to the dfg input stream encoding.
runtime::Stream trace_to_stream(const FcdTrace &trace);

// ------------------------------------------------------------- GMM (1-d EM)

/// Gaussian mixture over scalar observations (speeds with missing data).
struct Gmm {
  std::vector<double> weight;
  std::vector<double> mean;
  std::vector<double> variance;

  [[nodiscard]] double pdf(double x) const;
  [[nodiscard]] double log_likelihood(const std::vector<double> &xs) const;
  [[nodiscard]] double mixture_mean() const;
};

/// Fits a k-component GMM with EM (deterministic init from quantiles).
support::Expected<Gmm> fit_gmm(const std::vector<double> &xs, int k,
                               int iterations = 60);

/// Generates per-15-minute segment speeds for a weekday: free-flow at night,
/// two rush-hour dips, with missing observations (NaN) at `missing_fraction`.
std::vector<double> make_speed_observations(double speed_limit_kmh,
                                            std::size_t days,
                                            double missing_fraction,
                                            std::uint64_t seed);

/// Predicts expected speed from a GMM fit of incomplete observations
/// (ignoring NaNs), the paper's "alternative traffic prediction with
/// incomplete data".
support::Expected<double> predict_speed_gmm(const std::vector<double> &obs,
                                            int components = 3);

}  // namespace everest::usecases::traffic

#include "usecases/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>

namespace everest::usecases::traffic {

using support::Error;
using support::Expected;

// ------------------------------------------------------------------ network

double Segment::length_km() const {
  return std::hypot(x2 - x1, y2 - y1);
}

double Segment::distance_km(double px, double py) const {
  double dx = x2 - x1, dy = y2 - y1;
  double len2 = dx * dx + dy * dy;
  double t = len2 > 0 ? ((px - x1) * dx + (py - y1) * dy) / len2 : 0.0;
  t = std::clamp(t, 0.0, 1.0);
  return std::hypot(px - (x1 + t * dx), py - (y1 + t * dy));
}

RoadNetwork make_grid_network(int n, double cell_km, std::uint64_t seed) {
  support::Pcg32 rng(seed);
  RoadNetwork net;
  net.grid_n = n;
  net.cell_km = cell_km;
  int id = 0;
  auto add = [&](double x1, double y1, double x2, double y2) {
    Segment s;
    s.id = id++;
    s.x1 = x1;
    s.y1 = y1;
    s.x2 = x2;
    s.y2 = y2;
    s.speed_limit_kmh = 30.0 + 10.0 * rng.bounded(5);  // 30..70
    net.segments.push_back(s);
  };
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j <= n; ++j) {
      double x = i * cell_km, y = j * cell_km;
      if (i < n) add(x, y, x + cell_km, y);
      if (j < n) add(x, y, x, y + cell_km);
    }
  }
  return net;
}

FcdTrace make_trace(const RoadNetwork &net, int num_points, double noise_km,
                    std::uint64_t seed) {
  support::Pcg32 rng(seed);
  FcdTrace trace;

  // Random walk over grid intersections; each step traverses one segment.
  int n = net.grid_n;
  int ix = static_cast<int>(rng.bounded(static_cast<std::uint32_t>(n + 1)));
  int iy = static_cast<int>(rng.bounded(static_cast<std::uint32_t>(n + 1)));

  // Index segments by their endpoints for lookup.
  std::map<std::tuple<double, double, double, double>, int> by_coords;
  for (const auto &s : net.segments)
    by_coords[{s.x1, s.y1, s.x2, s.y2}] = s.id;
  auto find_segment = [&](double x1, double y1, double x2, double y2) {
    auto it = by_coords.find({x1, y1, x2, y2});
    if (it != by_coords.end()) return it->second;
    it = by_coords.find({x2, y2, x1, y1});
    return it != by_coords.end() ? it->second : -1;
  };

  double t = 0.0;
  for (int p = 0; p < num_points; ++p) {
    // Pick a feasible direction.
    for (int attempt = 0; attempt < 16; ++attempt) {
      int dir = static_cast<int>(rng.bounded(4));
      int nx = ix + (dir == 0) - (dir == 1);
      int ny = iy + (dir == 2) - (dir == 3);
      if (nx < 0 || nx > n || ny < 0 || ny > n) continue;
      double x1 = ix * net.cell_km, y1 = iy * net.cell_km;
      double x2 = nx * net.cell_km, y2 = ny * net.cell_km;
      int seg = find_segment(x1, y1, x2, y2);
      if (seg < 0) continue;

      // Sample a GPS point midway along the segment with noise.
      double frac = rng.uniform(0.3, 0.7);
      GpsPoint gp;
      gp.x = x1 + frac * (x2 - x1) + rng.normal(0.0, noise_km);
      gp.y = y1 + frac * (y2 - y1) + rng.normal(0.0, noise_km);
      t += rng.uniform(20.0, 60.0);
      gp.t = t;
      trace.points.push_back(gp);
      trace.true_segments.push_back(seg);
      ix = nx;
      iy = ny;
      break;
    }
  }
  return trace;
}

// ------------------------------------------------------------- map matching

namespace {

/// The candidate order (see SegmentIndex): distance, then id, NaN last.
bool candidate_before(const Candidate &a, const Candidate &b) {
  const bool a_nan = std::isnan(a.distance_km);
  const bool b_nan = std::isnan(b.distance_km);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a.distance_km != b.distance_km)
    return a.distance_km < b.distance_km;
  return a.segment < b.segment;
}

/// The ring walk stops once the next ring's lower bound exceeds the k-th
/// distance by this fraction of the coordinates' magnitude: far above the
/// few ulps by which a computed distance or cell boundary can be off. A
/// larger margin only costs extra rings, never exactness.
constexpr double kPruneMargin = 1e-9;

/// The cell of scaled coordinate t among n. Clamped in double first, so NaN,
/// infinities and huge values never reach the conversion to int.
int cell_of(double t, int n) {
  if (!(t >= 0.0)) return 0;  // negative or NaN
  if (t >= static_cast<double>(n - 1)) return n - 1;
  return static_cast<int>(t);
}

}  // namespace

SegmentIndex::SegmentIndex(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  start_.assign(2, 0);
  if (segments_.empty()) return;
  constexpr double inf = std::numeric_limits<double>::infinity();
  double x1 = inf, y1 = inf, x2 = -inf, y2 = -inf;
  for (const auto &s : segments_) {
    x1 = std::min({x1, s.x1, s.x2});
    y1 = std::min({y1, s.y1, s.y2});
    x2 = std::max({x2, s.x1, s.x2});
    y2 = std::max({y2, s.y1, s.y2});
  }
  x0_ = x1;
  y0_ = y1;
  const double w = x2 - x1, h = y2 - y1;
  if (std::isfinite(w) && std::isfinite(h)) {
    // About one cell per segment, and at most n + 1 cells a side, so a thin
    // network cannot blow up the count (at most 3n + 1 cells in all). A
    // network without extent keeps the single cell.
    const int n = static_cast<int>(std::min<std::size_t>(
        segments_.size(), std::numeric_limits<int>::max() - 1));
    const double cell =
        std::max(std::sqrt(w) * std::sqrt(h / n), std::max(w, h) / n);
    if (cell > 0.0) {
      cell_ = cell;
      nx_ = 1 + cell_of(w / cell_, n + 1);
      ny_ = 1 + cell_of(h / cell_, n + 1);
    }
  }
  scale_ = std::max({std::abs(x1), std::abs(y1), std::abs(x2), std::abs(y2),
                     cell_});

  // Two passes over the segments' cell ranges: count into start_[c + 1],
  // then fill using start_[c] as cell c's cursor, which leaves it at cell c's
  // end; shifting start_ up one slot turns those ends back into starts.
  auto for_each_cell = [&](const Segment &s, auto &&fn) {
    const int i0 = cell_of((std::min(s.x1, s.x2) - x0_) / cell_, nx_);
    const int i1 = cell_of((std::max(s.x1, s.x2) - x0_) / cell_, nx_);
    const int j0 = cell_of((std::min(s.y1, s.y2) - y0_) / cell_, ny_);
    const int j1 = cell_of((std::max(s.y1, s.y2) - y0_) / cell_, ny_);
    for (int j = j0; j <= j1; ++j)
      for (int i = i0; i <= i1; ++i)
        fn(static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(i));
  };
  const std::size_t cells =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  start_.assign(cells + 1, 0);
  for (const auto &s : segments_)
    for_each_cell(s, [&](std::size_t c) { ++start_[c + 1]; });
  for (std::size_t c = 1; c <= cells; ++c) start_[c] += start_[c - 1];
  items_.resize(start_[cells]);
  for (std::size_t pos = 0; pos < segments_.size(); ++pos)
    for_each_cell(segments_[pos], [&](std::size_t c) {
      items_[start_[c]++] = static_cast<std::uint32_t>(pos);
    });
  for (std::size_t c = cells - 1; c > 0; --c) start_[c] = start_[c - 1];
  start_[0] = 0;
}

std::vector<Candidate> SegmentIndex::nearest(double px, double py,
                                             int k) const {
  std::vector<Candidate> best;  // in candidate order, at most `want`
  if (k < 1 || segments_.empty() || !std::isfinite(px) || !std::isfinite(py))
    return best;
  const std::size_t want =
      std::min(static_cast<std::size_t>(k), segments_.size());
  best.reserve(want);

  auto visit = [&](int i, int j) {
    const std::size_t c =
        static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
        static_cast<std::size_t>(i);
    for (std::size_t it = start_[c]; it < start_[c + 1]; ++it) {
      const Segment &s = segments_[items_[it]];
      const Candidate cand{s.id, s.distance_km(px, py)};
      if (best.size() == want && !candidate_before(cand, best.back())) continue;
      // A segment listed in several visited cells is already held.
      if (std::any_of(best.begin(), best.end(), [&](const Candidate &b) {
            return b.segment == cand.segment;
          }))
        continue;
      const auto at = std::upper_bound(best.begin(), best.end(), cand,
                                       candidate_before) -
                      best.begin();
      if (best.size() == want) best.pop_back();
      best.insert(best.begin() + at, cand);
    }
  };

  const int cx = cell_of((px - x0_) / cell_, nx_);
  const int cy = cell_of((py - y0_) / cell_, ny_);
  const double margin =
      kPruneMargin * (scale_ + std::abs(px) + std::abs(py));
  visit(cx, cy);
  for (int r = 1;; ++r) {
    // Rings < r cover columns [lo_i, hi_i] and rows [lo_j, hi_j]. A segment
    // not yet seen lies wholly beyond one of that block's sides that falls
    // inside the grid, so its distance is at least the point's distance to
    // the nearest such side.
    const int lo_i = cx - r + 1, hi_i = cx + r - 1;
    const int lo_j = cy - r + 1, hi_j = cy + r - 1;
    double bound = std::numeric_limits<double>::infinity();
    bool covered = true;
    if (lo_i > 0) {
      bound = std::min(bound, px - (x0_ + lo_i * cell_));
      covered = false;
    }
    if (hi_i < nx_ - 1) {
      bound = std::min(bound, x0_ + (hi_i + 1) * cell_ - px);
      covered = false;
    }
    if (lo_j > 0) {
      bound = std::min(bound, py - (y0_ + lo_j * cell_));
      covered = false;
    }
    if (hi_j < ny_ - 1) {
      bound = std::min(bound, y0_ + (hi_j + 1) * cell_ - py);
      covered = false;
    }
    if (covered) break;
    if (best.size() == want && bound - best.back().distance_km > margin) break;

    for (int j = std::max(cy - r, 0); j <= std::min(cy + r, ny_ - 1); ++j) {
      if (j == cy - r || j == cy + r) {
        for (int i = std::max(cx - r, 0); i <= std::min(cx + r, nx_ - 1); ++i)
          visit(i, j);
      } else {
        if (cx - r >= 0) visit(cx - r, j);
        if (cx + r < nx_) visit(cx + r, j);
      }
    }
  }
  return best;
}

namespace {

/// Matching looks segments up by id, so ids must be their positions.
support::Status check_segment_ids(const RoadNetwork &net, const char *who) {
  for (std::size_t i = 0; i < net.segments.size(); ++i) {
    if (net.segments[i].id != static_cast<int>(i))
      return Error::invalid_argument(std::string(who) + ": segment " +
                                     std::to_string(i) + " has id " +
                                     std::to_string(net.segments[i].id));
  }
  return support::Status::ok();
}

double emission_logp(double distance_km, double sigma) {
  double z = distance_km / sigma;
  return -0.5 * z * z;
}

/// Transition log-probability between segments: exponential in the distance
/// between segment midpoints (proxy for route deviation).
double transition_logp(const Segment &a, const Segment &b, double beta) {
  double ax = 0.5 * (a.x1 + a.x2), ay = 0.5 * (a.y1 + a.y2);
  double bx = 0.5 * (b.x1 + b.x2), by = 0.5 * (b.y1 + b.y2);
  double d = std::hypot(ax - bx, ay - by);
  return -d / beta;
}

}  // namespace

Expected<std::vector<int>> map_match(const RoadNetwork &net,
                                     const std::vector<GpsPoint> &points,
                                     const MapMatchConfig &config) {
  if (points.empty()) return Error::invalid_argument("map_match: empty trace");
  if (config.max_candidates < 1)
    return Error::invalid_argument("map_match: need at least one candidate");
  if (net.segments.empty())
    return Error::invalid_argument("map_match: empty road network");
  if (auto ids = check_segment_ids(net, "map_match"); !ids) return ids.error();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!std::isfinite(points[i].x) || !std::isfinite(points[i].y))
      return Error::invalid_argument("map_match: point " + std::to_string(i) +
                                     " is not finite");
  }

  const SegmentIndex index(net.segments);
  std::vector<std::vector<Candidate>> cands(points.size());
  std::vector<std::vector<double>> logp(points.size());
  std::vector<std::vector<int>> backptr(points.size());

  for (std::size_t i = 0; i < points.size(); ++i) {
    cands[i] = index.nearest(points[i].x, points[i].y, config.max_candidates);
    logp[i].assign(cands[i].size(), -std::numeric_limits<double>::infinity());
    // 0, not -1: a point so far away that every score is -inf still
    // backtracks through a valid candidate.
    backptr[i].assign(cands[i].size(), 0);
  }

  for (std::size_t c = 0; c < cands[0].size(); ++c)
    logp[0][c] = emission_logp(cands[0][c].distance_km, config.sigma_gps_km);

  for (std::size_t i = 1; i < points.size(); ++i) {
    for (std::size_t c = 0; c < cands[i].size(); ++c) {
      double emit = emission_logp(cands[i][c].distance_km, config.sigma_gps_km);
      for (std::size_t p = 0; p < cands[i - 1].size(); ++p) {
        double trans = transition_logp(
            net.segments[static_cast<std::size_t>(cands[i - 1][p].segment)],
            net.segments[static_cast<std::size_t>(cands[i][c].segment)],
            config.beta_transition);
        double score = logp[i - 1][p] + trans + emit;
        if (score > logp[i][c]) {
          logp[i][c] = score;
          backptr[i][c] = static_cast<int>(p);
        }
      }
    }
  }

  // Backtrack.
  std::vector<int> result(points.size(), -1);
  std::size_t last = points.size() - 1;
  std::size_t best = 0;
  for (std::size_t c = 1; c < logp[last].size(); ++c) {
    if (logp[last][c] > logp[last][best]) best = c;
  }
  for (std::size_t i = points.size(); i-- > 0;) {
    result[i] = cands[i][best].segment;
    if (i > 0) best = static_cast<std::size_t>(backptr[i][best]);
  }
  return result;
}

double matching_accuracy(const std::vector<int> &matched,
                         const std::vector<int> &truth) {
  std::size_t n = std::min(matched.size(), truth.size());
  if (n == 0) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) hits += matched[i] == truth[i];
  return static_cast<double>(hits) / static_cast<double>(n);
}

// -------------------------------------------------- dfg operator registration

std::string mapmatch_condrust_source() {
  return R"(
// Paper Fig. 4: map matching a single element, in ConDRust.
fn map_match(points: Stream<Point>) -> Stream<Seg> {
    #[fpga]
    let cands = candidates(points);
    let scored = emission_score(cands, points);
    let best = greedy_pick(scored);
    let state = fold viterbi_step(scored);
    let quality = decode(state);
    return best;
}
)";
}

runtime::Stream trace_to_stream(const FcdTrace &trace) {
  runtime::Stream s;
  s.reserve(trace.points.size());
  for (const auto &p : trace.points) s.push_back({p.x, p.y, p.t});
  return s;
}

support::Status register_mapmatch_operators(runtime::NodeRegistry &registry,
                                            const RoadNetwork &net,
                                            const MapMatchConfig &config) {
  const int k = config.max_candidates;
  if (k < 1)
    return Error::invalid_argument(
        "register_mapmatch_operators: need at least one candidate");
  if (auto ids = check_segment_ids(net, "register_mapmatch_operators"); !ids)
    return ids;
  const double sigma = config.sigma_gps_km;
  const double beta = config.beta_transition;
  // One read-only copy of the network and its index, shared by the closures
  // (streams outlive this call) and by every thread that runs them.
  auto index = std::make_shared<const SegmentIndex>(net.segments);

  registry.register_node("candidates", [index, k](const auto &in) {
    const runtime::Record &point = *in[0];
    auto cands = index->nearest(point[0], point[1], k);
    runtime::Record rec(static_cast<std::size_t>(k) * 2, -1.0);
    for (std::size_t c = 0; c < cands.size(); ++c) {
      rec[c * 2] = cands[c].segment;
      rec[c * 2 + 1] = cands[c].distance_km;
    }
    return rec;
  });

  registry.register_node("emission_score", [k, sigma](const auto &in) {
    const runtime::Record &cands = *in[0];
    runtime::Record rec(static_cast<std::size_t>(k) * 2, -1.0);
    for (int c = 0; c < k; ++c) {
      auto seg = cands[static_cast<std::size_t>(c) * 2];
      if (seg < 0) break;
      rec[static_cast<std::size_t>(c) * 2] = seg;
      rec[static_cast<std::size_t>(c) * 2 + 1] =
          emission_logp(cands[static_cast<std::size_t>(c) * 2 + 1], sigma);
    }
    return rec;
  });

  registry.register_node("greedy_pick", [k](const auto &in) {
    const runtime::Record &scored = *in[0];
    double best_seg = -1, best_logp = -1e300;
    for (int c = 0; c < k; ++c) {
      double seg = scored[static_cast<std::size_t>(c) * 2];
      if (seg < 0) break;
      double lp = scored[static_cast<std::size_t>(c) * 2 + 1];
      if (lp > best_logp) {
        best_logp = lp;
        best_seg = seg;
      }
    }
    return runtime::Record{best_seg};
  });

  // Online Viterbi DP over candidate slots: state = [seg, logp] * k.
  runtime::Record initial(static_cast<std::size_t>(k) * 2, -1.0);
  registry.register_fold(
      "viterbi_step", initial,
      [index, k, beta](const runtime::Record &state, const auto &in) {
        const runtime::Record &scored = *in[0];
        runtime::Record next(static_cast<std::size_t>(k) * 2, -1.0);
        bool first = state[0] < 0;
        for (int c = 0; c < k; ++c) {
          double seg = scored[static_cast<std::size_t>(c) * 2];
          if (seg < 0) break;
          double emit = scored[static_cast<std::size_t>(c) * 2 + 1];
          double best = -1e300;
          if (first) {
            best = emit;
          } else {
            for (int p = 0; p < k; ++p) {
              double pseg = state[static_cast<std::size_t>(p) * 2];
              if (pseg < 0) break;
              double plogp = state[static_cast<std::size_t>(p) * 2 + 1];
              double trans = transition_logp(
                  index->segments()[static_cast<std::size_t>(pseg)],
                  index->segments()[static_cast<std::size_t>(seg)], beta);
              best = std::max(best, plogp + trans + emit);
            }
          }
          next[static_cast<std::size_t>(c) * 2] = seg;
          next[static_cast<std::size_t>(c) * 2 + 1] = best;
        }
        return next;
      });

  registry.register_node("decode", [k](const auto &in) {
    const runtime::Record &state = *in[0];
    double best_seg = -1, best_logp = -1e300;
    for (int c = 0; c < k; ++c) {
      double seg = state[static_cast<std::size_t>(c) * 2];
      if (seg < 0) break;
      double lp = state[static_cast<std::size_t>(c) * 2 + 1];
      if (lp > best_logp) {
        best_logp = lp;
        best_seg = seg;
      }
    }
    return runtime::Record{best_seg};
  });
  return support::Status::ok();
}

// ---------------------------------------------------------------------- GMM

double Gmm::pdf(double x) const {
  double p = 0.0;
  for (std::size_t c = 0; c < weight.size(); ++c) {
    double var = std::max(variance[c], 1e-9);
    double z = (x - mean[c]) * (x - mean[c]) / (2.0 * var);
    p += weight[c] * std::exp(-z) / std::sqrt(2.0 * M_PI * var);
  }
  return p;
}

double Gmm::log_likelihood(const std::vector<double> &xs) const {
  double ll = 0.0;
  for (double x : xs) ll += std::log(std::max(pdf(x), 1e-300));
  return ll;
}

double Gmm::mixture_mean() const {
  double m = 0.0;
  for (std::size_t c = 0; c < weight.size(); ++c) m += weight[c] * mean[c];
  return m;
}

Expected<Gmm> fit_gmm(const std::vector<double> &xs, int k, int iterations) {
  if (k < 1) return Error::make("gmm: k must be >= 1");
  if (static_cast<int>(xs.size()) < 2 * k)
    return Error::make("gmm: not enough data for " + std::to_string(k) +
                       " components");

  // Deterministic init at quantiles.
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  Gmm g;
  g.weight.assign(static_cast<std::size_t>(k), 1.0 / k);
  for (int c = 0; c < k; ++c) {
    double q = (c + 0.5) / k;
    g.mean.push_back(sorted[static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1))]);
  }
  double span = std::max(sorted.back() - sorted.front(), 1e-3);
  g.variance.assign(static_cast<std::size_t>(k), span * span / (4.0 * k * k));

  std::vector<std::vector<double>> resp(
      xs.size(), std::vector<double>(static_cast<std::size_t>(k)));
  for (int iter = 0; iter < iterations; ++iter) {
    // E step.
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double total = 0.0;
      for (int c = 0; c < k; ++c) {
        double var = std::max(g.variance[static_cast<std::size_t>(c)], 1e-9);
        double z = (xs[i] - g.mean[static_cast<std::size_t>(c)]);
        double p = g.weight[static_cast<std::size_t>(c)] *
                   std::exp(-z * z / (2.0 * var)) / std::sqrt(var);
        resp[i][static_cast<std::size_t>(c)] = p;
        total += p;
      }
      if (total <= 1e-300) total = 1e-300;
      for (int c = 0; c < k; ++c) resp[i][static_cast<std::size_t>(c)] /= total;
    }
    // M step.
    for (int c = 0; c < k; ++c) {
      double nc = 0.0, mu = 0.0;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        nc += resp[i][static_cast<std::size_t>(c)];
        mu += resp[i][static_cast<std::size_t>(c)] * xs[i];
      }
      nc = std::max(nc, 1e-9);
      mu /= nc;
      double var = 0.0;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        var += resp[i][static_cast<std::size_t>(c)] * (xs[i] - mu) * (xs[i] - mu);
      }
      g.weight[static_cast<std::size_t>(c)] = nc / static_cast<double>(xs.size());
      g.mean[static_cast<std::size_t>(c)] = mu;
      g.variance[static_cast<std::size_t>(c)] = std::max(var / nc, 1e-6);
    }
  }
  return g;
}

std::vector<double> make_speed_observations(double speed_limit_kmh,
                                            std::size_t days,
                                            double missing_fraction,
                                            std::uint64_t seed) {
  support::Pcg32 rng(seed);
  std::vector<double> obs;
  obs.reserve(days * 96);
  for (std::size_t d = 0; d < days; ++d) {
    for (int q = 0; q < 96; ++q) {
      double hour = q / 4.0;
      // Two rush-hour dips at ~8h and ~17h30.
      double dip = 0.45 * std::exp(-std::pow(hour - 8.0, 2) / 2.0) +
                   0.55 * std::exp(-std::pow(hour - 17.5, 2) / 2.5);
      double speed = speed_limit_kmh * (1.0 - dip) + rng.normal(0.0, 2.0);
      if (rng.uniform() < missing_fraction) {
        obs.push_back(std::numeric_limits<double>::quiet_NaN());
      } else {
        obs.push_back(std::max(speed, 3.0));
      }
    }
  }
  return obs;
}

Expected<double> predict_speed_gmm(const std::vector<double> &obs,
                                   int components) {
  std::vector<double> present;
  present.reserve(obs.size());
  for (double x : obs) {
    if (!std::isnan(x)) present.push_back(x);
  }
  if (present.empty()) return Error::make("gmm predict: all data missing");
  auto g = fit_gmm(present, components);
  if (!g) return g.error();
  return g->mixture_mean();
}

}  // namespace everest::usecases::traffic

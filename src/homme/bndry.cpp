#include "homme/bndry.hpp"

#include <algorithm>
#include <cassert>

#include "homme/ops.hpp"
#include "homme/scratch.hpp"
#include "homme/state.hpp"

namespace homme {

using mesh::kNpp;

BndryExchange::BndryExchange(const mesh::CubedSphere& mesh,
                             const mesh::Partition& part,
                             const mesh::CommPlan& plan, int rank)
    : mesh_(mesh), rank_(rank),
      local_elems_(part.rank_elems[static_cast<std::size_t>(rank)]) {
  // Dense local node numbering over every node touched by local elements.
  for (int ge : local_elems_) {
    for (int node : mesh.nodes(ge)) {
      if (node_index_.emplace(node, nlocal_nodes_).second) {
        ++nlocal_nodes_;
      }
    }
  }

  local_node_of_elem_.resize(local_elems_.size());
  for (std::size_t le = 0; le < local_elems_.size(); ++le) {
    const auto& ids = mesh.nodes(local_elems_[le]);
    for (int k = 0; k < kNpp; ++k) {
      local_node_of_elem_[le][static_cast<std::size_t>(k)] =
          node_index_.at(ids[static_cast<std::size_t>(k)]);
    }
  }

  // Assembled (global) inverse mass per local node, from mesh geometry.
  node_rmass_.assign(static_cast<std::size_t>(nlocal_nodes_), 0.0);
  for (const auto& [gnode, lnode] : node_index_) {
    double mass = 0.0;
    for (const auto& [e, k] : mesh.node_elems(gnode)) {
      mass += mesh.geom(e).mass[static_cast<std::size_t>(k)];
    }
    node_rmass_[static_cast<std::size_t>(lnode)] = 1.0 / mass;
  }

  // Neighbor buffers in plan order.
  std::vector<bool> node_shared(static_cast<std::size_t>(nlocal_nodes_),
                                false);
  for (const auto& nb : plan.per_rank[static_cast<std::size_t>(rank)]) {
    NeighborBuf buf;
    buf.rank = nb.rank;
    buf.local_nodes.reserve(nb.nodes.size());
    for (int gnode : nb.nodes) {
      const int lnode = node_index_.at(gnode);
      buf.local_nodes.push_back(lnode);
      node_shared[static_cast<std::size_t>(lnode)] = true;
    }
    neighbors_.push_back(std::move(buf));
  }

  // Interior / boundary element split (section 7.6).
  elem_is_boundary_.assign(local_elems_.size(), false);
  for (std::size_t le = 0; le < local_elems_.size(); ++le) {
    for (int k = 0; k < kNpp; ++k) {
      if (node_shared[static_cast<std::size_t>(
              local_node_of_elem_[le][static_cast<std::size_t>(k)])]) {
        elem_is_boundary_[le] = true;
        break;
      }
    }
    (elem_is_boundary_[le] ? boundary_ : interior_)
        .push_back(static_cast<int>(le));
  }
}

void BndryExchange::accumulate(std::span<double* const> fields, int nlev,
                               const std::vector<int>& elems) {
  for (int le : elems) {
    const std::size_t sle = static_cast<std::size_t>(le);
    const auto& g = mesh_.geom(local_elems_[sle]);
    const double* f = fields[sle];
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        node_acc_[static_cast<std::size_t>(
                      local_node_of_elem_[sle][static_cast<std::size_t>(k)]) *
                      static_cast<std::size_t>(nlev) +
                  static_cast<std::size_t>(lev)] +=
            g.mass[static_cast<std::size_t>(k)] * f[fidx(lev, k)];
      }
    }
  }
}

void BndryExchange::scatter(std::span<double* const> fields, int nlev) {
  for (std::size_t le = 0; le < local_elems_.size(); ++le) {
    double* f = fields[le];
    for (int lev = 0; lev < nlev; ++lev) {
      for (int k = 0; k < kNpp; ++k) {
        const std::size_t ln = static_cast<std::size_t>(
            local_node_of_elem_[le][static_cast<std::size_t>(k)]);
        f[fidx(lev, k)] = node_acc_[ln * static_cast<std::size_t>(nlev) +
                                    static_cast<std::size_t>(lev)] *
                          node_rmass_[ln];
      }
    }
  }
}

void BndryExchange::dss_levels(net::Rank& r, std::span<double* const> fields,
                               int nlev, Mode mode) {
  assert(fields.size() == local_elems_.size());
  node_acc_.assign(
      static_cast<std::size_t>(nlocal_nodes_) * static_cast<std::size_t>(nlev),
      0.0);
  last_copy_bytes_ = 0;
  last_msg_bytes_ = 0;
  const int tag = 101;

  auto pack_neighbor = [&](NeighborBuf& nb) {
    nb.send.resize(nb.local_nodes.size() * static_cast<std::size_t>(nlev));
    for (std::size_t i = 0; i < nb.local_nodes.size(); ++i) {
      for (int lev = 0; lev < nlev; ++lev) {
        nb.send[i * static_cast<std::size_t>(nlev) +
                static_cast<std::size_t>(lev)] =
            node_acc_[static_cast<std::size_t>(nb.local_nodes[i]) *
                          static_cast<std::size_t>(nlev) +
                      static_cast<std::size_t>(lev)];
      }
    }
    last_copy_bytes_ += nb.send.size() * sizeof(double);
  };

  if (mode == Mode::kOriginal) {
    // Pack everything, then communicate, then route received data through
    // the pack buffer once more before it reaches the accumulators (the
    // unified-interface design the paper measures).
    {
      obs::ScopedSpan span(trk_, "bndry:compute");
      accumulate(fields, nlev, boundary_);
      accumulate(fields, nlev, interior_);
    }
    {
      obs::ScopedSpan span(trk_, "bndry:pack");
      for (auto& nb : neighbors_) pack_neighbor(nb);
    }
    {
      obs::ScopedSpan span(trk_, "bndry:send");
      for (auto& nb : neighbors_) {
        r.send(nb.rank, tag, nb.send);
        last_msg_bytes_ += nb.send.size() * sizeof(double);
      }
    }
    obs::ScopedSpan wait_span(trk_, "bndry:wait_unpack");
    for (auto& nb : neighbors_) {
      nb.recv.resize(nb.send.size());
      r.recv(nb.rank, tag, nb.recv);
      // Original data flow: recv buffer -> pack buffer -> elements. The
      // extra staging pass is modeled by a real copy.
      staged_.assign(nb.recv.begin(), nb.recv.end());
      last_copy_bytes_ += 2 * staged_.size() * sizeof(double);
      for (std::size_t i = 0; i < nb.local_nodes.size(); ++i) {
        for (int lev = 0; lev < nlev; ++lev) {
          node_acc_[static_cast<std::size_t>(nb.local_nodes[i]) *
                        static_cast<std::size_t>(nlev) +
                    static_cast<std::size_t>(lev)] +=
              staged_[i * static_cast<std::size_t>(nlev) +
                      static_cast<std::size_t>(lev)];
        }
      }
    }
  } else {
    // Redesign: boundary elements first, async sends posted before the
    // interior work, receive buffers unpacked directly.
    {
      obs::ScopedSpan span(trk_, "bndry:boundary_compute");
      accumulate(fields, nlev, boundary_);
    }
    {
      obs::ScopedSpan span(trk_, "bndry:pack");
      for (auto& nb : neighbors_) pack_neighbor(nb);
    }
    sends_.clear();
    {
      obs::ScopedSpan span(trk_, "bndry:post_send");
      for (auto& nb : neighbors_) {
        sends_.push_back(r.isend(nb.rank, tag, nb.send));
        last_msg_bytes_ += nb.send.size() * sizeof(double);
      }
    }
    {
      // Interior computation overlaps the in-flight messages — the
      // section 7.6 window the ablation trace measures.
      obs::ScopedSpan span(trk_, "bndry:inner_compute");
      accumulate(fields, nlev, interior_);
    }
    obs::ScopedSpan wait_span(trk_, "bndry:wait_unpack");
    for (auto& nb : neighbors_) {
      nb.recv.resize(nb.send.size());
      r.recv(nb.rank, tag, nb.recv);
      for (std::size_t i = 0; i < nb.local_nodes.size(); ++i) {
        for (int lev = 0; lev < nlev; ++lev) {
          node_acc_[static_cast<std::size_t>(nb.local_nodes[i]) *
                        static_cast<std::size_t>(nlev) +
                    static_cast<std::size_t>(lev)] +=
              nb.recv[i * static_cast<std::size_t>(nlev) +
                      static_cast<std::size_t>(lev)];
        }
      }
    }
    r.wait_all(sends_);
  }

  {
    obs::ScopedSpan span(trk_, "bndry:scatter");
    scatter(fields, nlev);
  }
}

void BndryExchange::dss_vector_levels(net::Rank& r,
                                      std::span<double* const> u1,
                                      std::span<double* const> u2, int nlev,
                                      Mode mode) {
  const std::size_t n = local_elems_.size();
  const std::size_t fs = static_cast<std::size_t>(nlev) * kNpp;
  // Cartesian component scratch from the per-thread arena (the rank-level
  // node accumulator is the node_acc_ member, not arena storage).
  ScratchArena& arena = ScratchArena::thread_local_arena();
  if (arena.capacity() < 3 * n * fs || arena.ptr_capacity() < 3 * n) {
    arena.require(3 * n * fs, 3 * n);
  }
  ScratchArena::Frame frame(arena);
  std::span<double> cx = arena.alloc(n * fs), cy = arena.alloc(n * fs),
                    cz = arena.alloc(n * fs);
  std::span<double*> px = arena.alloc_ptrs(n), py = arena.alloc_ptrs(n),
                     pz = arena.alloc_ptrs(n);
  for (std::size_t le = 0; le < n; ++le) {
    px[le] = cx.data() + le * fs;
    py[le] = cy.data() + le * fs;
    pz[le] = cz.data() + le * fs;
  }
  {
    obs::ScopedSpan span(trk_, "bndry:rotate");
    for (std::size_t le = 0; le < n; ++le) {
      const auto& g = mesh_.geom(local_elems_[le]);
      for (int lev = 0; lev < nlev; ++lev) {
        contra_to_cart(g, u1[le] + fidx(lev, 0), u2[le] + fidx(lev, 0),
                       px[le] + fidx(lev, 0), py[le] + fidx(lev, 0),
                       pz[le] + fidx(lev, 0));
      }
    }
  }
  dss_levels(r, px, nlev, mode);
  dss_levels(r, py, nlev, mode);
  dss_levels(r, pz, nlev, mode);
  {
    obs::ScopedSpan span(trk_, "bndry:rotate");
    for (std::size_t le = 0; le < n; ++le) {
      const auto& g = mesh_.geom(local_elems_[le]);
      for (int lev = 0; lev < nlev; ++lev) {
        cart_to_contra(g, px[le] + fidx(lev, 0), py[le] + fidx(lev, 0),
                       pz[le] + fidx(lev, 0), u1[le] + fidx(lev, 0),
                       u2[le] + fidx(lev, 0));
      }
    }
  }
}

}  // namespace homme

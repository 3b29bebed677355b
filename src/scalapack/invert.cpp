#include "scalapack/invert.hpp"

#include <mutex>

#include "common/error.hpp"
#include "mpi/world.hpp"
#include "scalapack/pdgetri.hpp"

namespace mri::scalapack {

InvertResult invert(const Matrix& a, const Cluster& cluster,
                    const Options& options) {
  MRI_REQUIRE(a.square(), "scalapack::invert expects a square matrix");
  const Distribution dist(a.rows(), options.block_width, cluster.size());

  mpi::World world(cluster);
  std::vector<Matrix> per_rank(static_cast<std::size_t>(cluster.size()));
  std::mutex results_mu;
  SimReport lu_stage;

  world.run([&](mpi::Comm& comm) {
    const int rank = comm.rank();
    // Load this rank's share of the input from local storage (Table 1:
    // ScaLAPACK reads the matrix exactly once, n² elements in aggregate).
    LocalFactors local = scatter_blocks(a, dist, rank);
    comm.read_local(dist.elements_of(rank) * sizeof(double));

    pdgetrf(comm, dist, &local);

    // Stage snapshot: rank 0 records the LU-stage totals between two
    // barriers (all peers quiescent while it reads).
    comm.barrier();
    if (rank == 0) {
      lu_stage.sim_seconds = comm.clock();
      lu_stage.io = world.total_io();
    }
    comm.barrier();

    Matrix inv = pdgetri(comm, dist, local);

    // Store this rank's share of the result (Table 2: write n² aggregate).
    comm.write_local(dist.elements_of(rank) * sizeof(double));
    comm.barrier();

    std::lock_guard<std::mutex> lock(results_mu);
    per_rank[static_cast<std::size_t>(rank)] = std::move(inv);
  });

  InvertResult result;
  result.inverse = gather_inverse(dist, per_rank);
  result.report.sim_seconds = world.sim_seconds();
  result.report.io = world.total_io();
  result.lu_stage = lu_stage;
  result.inversion_stage.sim_seconds =
      result.report.sim_seconds - lu_stage.sim_seconds;
  result.inversion_stage.io = result.report.io - lu_stage.io;
  return result;
}

}  // namespace mri::scalapack

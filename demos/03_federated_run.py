"""One federated training run, end to end.

Twenty agents learn the noisy 5x5 task; each round they run one local
update on private sample streams, upload top-5 of their progress through
error feedback, and the server blends the average back into the global
table.  The trace records accuracy against the exact fixed point and the
bits each agent paid.
"""
import numpy as np

import fedq

grid = fedq.load_map("map5x5")
mdp = fedq.build_gridworld(grid, noise=fedq.NoiseSpec(std=0.5, clip=0.5), gamma=0.8)
q_star = fedq.value_iteration(fedq.build_gridworld(grid, gamma=0.8), tol=1e-10)

config = fedq.ExperimentConfig(
    n_agents=20,
    local_epochs=1,
    rounds=400,
    eta=0.1,
    beta=0.8,
    gamma=0.8,
    compressor=fedq.CompressorSpec("top_k", k=5),
    master_seed=0,
)
result = fedq.run_federated(config, mdp, q_star)

print(f"mode resolved to: {config.resolved_mode()} (top_k pairs with error feedback)")
print("round    rmse      linf    bits/agent (cumulative)")
for m in result.metrics[:: len(result.metrics) // 10]:
    print(f"{m.round:5d}  {m.rmse:7.4f}  {m.linf_error:7.4f}  {m.bits_cumulative:12.0f}")
last = result.metrics[-1]
uncompressed = mdp.table_size * 32 * config.rounds
print(f"\nfinal rmse {last.rmse:.4f} using {last.bits_cumulative:.0f} bits/agent "
      f"({last.bits_cumulative / uncompressed:.1%} of the uncompressed cost)")
note = ""
if result.alpha_min == 0.0:
    # clipped rewards put atoms at exactly +-(1 + clip), so early-round
    # uploads can tie the top magnitudes and the contraction factor
    # degenerates; the error-feedback run itself is unaffected
    note = " (ties in the top magnitudes; see demo 05 for a clean overlay)"
print(f"smallest realized contraction factor: {result.alpha_min:.3f}{note}")

# sanity: with the identity operator, beta=1 and one agent, the loop IS the
# classic centralized damped recursion, bit for bit
small = fedq.ExperimentConfig(n_agents=1, local_epochs=1, rounds=50, eta=0.1, beta=1.0,
                              gamma=0.8, compressor=fedq.CompressorSpec(), master_seed=7)
run = fedq.run_federated(small, mdp, q_star)
q = np.zeros((25, 4))
root = fedq.RngStream(7)
for t in range(50):
    ns, rw = fedq.synchronous_sample(mdp, root.child(0, t, 0).generator())
    q = 0.9 * q + 0.1 * (rw + 0.8 * q.max(axis=1)[ns])
print("\ncentralized reduction check:", "bit-identical" if np.array_equal(run.q_final, q) else "DIFFERS")

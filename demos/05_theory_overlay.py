"""Evaluate the finite-time convergence bounds and overlay them on a run.

The two bound evaluators upper-bound the sup-norm error of the global
table after T rounds with probability 1 - delta: one for direct uploads
through an unbiased sparsifier, one for error-feedback uploads through a
contractive one.  They are loose ceilings, useful for studying how the
guarantee scales with agents, learning rate, and compression constants.
"""
import dataclasses

import numpy as np

import fedq

grid = fedq.load_map("map5x5")
# a wide clip keeps the reward distribution atom-free, so no upload ever
# ties its top magnitudes and the realized contraction factor stays positive
mdp = fedq.build_gridworld(grid, noise=fedq.NoiseSpec(std=0.5, clip=5.0), gamma=0.8)
q_star = fedq.value_iteration(fedq.build_gridworld(grid, gamma=0.8), tol=1e-10)

config = fedq.ExperimentConfig(
    n_agents=50, local_epochs=1, rounds=800, eta=0.1, beta=0.8, gamma=0.8,
    compressor=fedq.CompressorSpec("top_k", k=5), master_seed=0,
)
result = fedq.run_federated(config, mdp, q_star)
print(f"realized minimum contraction factor alpha = {result.alpha_min:.4f}")

params = fedq.BoundParams(
    beta=config.beta, eta=config.eta, gamma=config.gamma,
    local_epochs=config.local_epochs, rounds=config.rounds, n_agents=config.n_agents,
    delta=0.05, n_states=mdp.n_states, n_actions=mdp.n_actions,
    alpha=result.alpha_min,
    q0_gap=fedq.linf_error(np.zeros(q_star.shape), q_star),
)

# the bound after every round 1..T, one evaluator call; entry t - 1 is the bound after t rounds
curve = fedq.error_feedback_bound_curve(params)
print("\nround  empirical linf   error-feedback bound")
for m in result.metrics[1 :: len(result.metrics) // 8]:
    print(f"{m.round:5d}  {m.linf_error:14.4f}  {curve[m.round - 1]:20.2f}")

print("\nhow the guarantee scales (bound at T=800):")
for n_agents in (1, 10, 50, 200):
    b = fedq.error_feedback_bound(dataclasses.replace(params, n_agents=n_agents))
    print(f"  I={n_agents:4d}: {b:10.2f}")
print("contraction/decay factor per round:",
      fedq.decay_factor(config.beta, config.eta, config.local_epochs))

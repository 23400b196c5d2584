"""Bounded-rational decision-making with anytime chains and adaptive priors."""

"""Discrete Bayesian-network substrate: DAGs, CPTs, inference, learning."""

from repro.bayesnet.cpt import CPT, NULL_KEY, CodedCPT, cell_key
from repro.bayesnet.dag import DAG
from repro.bayesnet.inference import (
    Factor,
    VariableElimination,
    log_sum_exp,
    markov_blanket_posterior,
)
from repro.bayesnet.model import ColumnarNetScorer, DiscreteBayesNet
from repro.bayesnet.serialize import load_bn, load_dag, save_bn, save_dag

__all__ = [
    "CPT",
    "CodedCPT",
    "ColumnarNetScorer",
    "DAG",
    "DiscreteBayesNet",
    "Factor",
    "NULL_KEY",
    "VariableElimination",
    "cell_key",
    "load_bn",
    "load_dag",
    "log_sum_exp",
    "markov_blanket_posterior",
    "save_bn",
    "save_dag",
]

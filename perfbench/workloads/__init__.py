"""The four benchmark workloads: campaign, fleet, serve and learn."""
